package workload

import (
	"fmt"
	"sort"
)

// registry is the single ordered table of named workload constructors:
// every workload a wire request, CLI flag or experiment id can name by a
// short string lives here, so the name list and the dispatch logic cannot
// drift apart. The Random benchmark is deliberately absent — it takes its
// own RNG and is not addressable by (name, param) alone.
var registry = []struct {
	name string
	make func(param int) *Workload
	// check, when set, replaces the maxParam cap: it validates the size
	// parameter beyond the >= 1 rule, so ByName returns an error instead
	// of the constructor's panic.
	check func(param int) error
}{
	{name: "qrw", make: QRW},
	{name: "rcnot", make: RCNOT},
	{name: "dqt", make: DQT},
	{name: "rusqnn", make: RUSQNN},
	{name: "reset", make: Reset},
	{name: "qec", make: QECCycle},
	{name: "eswap", make: EntangleSwap},
	{name: "msi", make: MSI},
	{name: "surface", make: SurfaceMemory, check: checkSurfaceDistance},
}

// maxParam caps the size parameter of every workload without a check of
// its own. Admission builds the workload a request names, and the cost
// grows with the parameter (qec 100 allocates about 1.5 MiB, qec 100000
// about 1.8 GiB), so without a cap one request could exhaust a server.
const maxParam = 100

// checkSurfaceDistance mirrors SurfaceMemory's parameter contract: an
// odd code distance, capped so a mistyped request cannot ask a server
// for a million-qubit register.
func checkSurfaceDistance(d int) error {
	if d < 3 || d%2 == 0 {
		return fmt.Errorf("workload surface: distance must be odd and >= 3, got %d", d)
	}
	if d > maxSurfaceDistance {
		return fmt.Errorf("workload surface: distance %d exceeds the supported maximum %d", d, maxSurfaceDistance)
	}
	return nil
}

// Names returns the registered workload names in registry (presentation)
// order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// ByName builds the named workload with the given size parameter
// (steps/depth/distance/cycles/qubits, per constructor). It returns an
// error — rather than the constructors' panic — for an unknown name or an
// out-of-range parameter, so servers and CLIs can surface bad requests
// gracefully.
func ByName(name string, param int) (*Workload, error) {
	for _, e := range registry {
		if e.name != name {
			continue
		}
		if param < 1 {
			return nil, fmt.Errorf("workload %s: size parameter must be >= 1, got %d", name, param)
		}
		if e.check != nil {
			if err := e.check(param); err != nil {
				return nil, err
			}
		} else if param > maxParam {
			return nil, fmt.Errorf("workload %s: size parameter %d exceeds the supported maximum %d", name, param, maxParam)
		}
		return e.make(param), nil
	}
	known := Names()
	sort.Strings(known)
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, known)
}
