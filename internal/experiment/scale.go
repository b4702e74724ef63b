package experiment

import (
	"fmt"
	"math"
	"time"

	"artery/internal/controller"
	"artery/internal/core"
	"artery/internal/quantum"
	"artery/internal/stats"
	"artery/internal/workload"
)

func init() {
	ExtraRegistry["xtr-scale"] = (*Suite).ExtraScale
}

// cliffordSafeDeviceNoise is the device noise model projected onto its
// Clifford-safe channels: depolarizing gate error and readout flips stay,
// T1/T2 decay and quasi-static detuning are removed. This is the noise
// model under which the stabilizer backend is exact (DESIGN.md
// "Simulation backends").
func cliffordSafeDeviceNoise() *quantum.NoiseModel {
	n := quantum.DeviceNoise()
	n.T1, n.T2 = math.Inf(1), math.Inf(1)
	n.QuasiStaticSigma = 0
	return n
}

// surfaceEngine builds a fresh QubiC-overhead engine with the given
// simulation backend under Clifford-safe device noise.
func (s *Suite) surfaceEngine(kind quantum.BackendKind) *core.Engine {
	e := core.NewEngine(controller.NewBaseline("QubiC", controller.QubiCOverheadNs, s.topo),
		s.channel(30), cliffordSafeDeviceNoise())
	e.Backend = kind
	return e
}

// ExtraScale measures simulation throughput of the surface-code memory
// workload as the code distance grows — the capability the stabilizer
// backend exists for. The state vector caps at quantum.MaxStateQubits
// (24) qubits, so d=3 (17 qubits) is the only distance it can represent
// at all; beyond that the column reads "—" and the tableau is the only
// backend that runs. Rates are wall-clock on the current machine, so the
// absolute numbers vary run to run; the shape — polynomial tableau cost
// against the state vector's exponential wall — is the claim.
func (s *Suite) ExtraScale() *Table {
	t := &Table{
		ID:    "Extra: backend scaling",
		Title: "surface-code memory throughput by code distance (2 cycles)",
		Header: []string{"d", "qubits", "feedback sites",
			"tableau shots/s", "state-vector shots/s", "speedup"},
	}
	points := []struct{ d, shotsDiv int }{{3, 1}, {5, 2}, {9, 6}, {15, 12}}
	for pi, pt := range points {
		wl := workload.SurfaceMemory(pt.d)
		shots := s.Shots / pt.shotsDiv
		if shots < 2 {
			shots = 2
		}
		rate := func(kind quantum.BackendKind) float64 {
			e := s.surfaceEngine(kind)
			start := time.Now()
			e.Run(wl, shots, stats.NewRNG(s.Seed+uint64(3100+pi)))
			return float64(shots) / time.Since(start).Seconds()
		}
		tab := rate(quantum.BackendStabilizer)
		svCell, spCell := "—", "—"
		if wl.Circuit.NumQubits <= quantum.MaxStateQubits {
			sv := rate(quantum.BackendState)
			svCell = fmt.Sprintf("%.1f", sv)
			spCell = ratio(tab / sv)
		}
		t.AddRow(fmt.Sprint(pt.d), fmt.Sprint(wl.Circuit.NumQubits),
			fmt.Sprint(len(wl.SiteP1)), fmt.Sprintf("%.1f", tab), svCell, spCell)
	}
	t.Note("state vector holds at most %d qubits; '—' marks distances it cannot represent (d=5 already needs 49)", quantum.MaxStateQubits)
	t.Note("wall-clock rates on this machine; runs are bit-identical across backends and worker counts, only the clock varies")
	return t
}
