package quantum

import (
	"math"
	"strings"
	"testing"

	"artery/internal/stats"
)

func TestParseBackendKind(t *testing.T) {
	cases := []struct {
		in   string
		want BackendKind
	}{
		{"", BackendAuto},
		{"auto", BackendAuto},
		{"state", BackendState},
		{"statevector", BackendState},
		{"stabilizer", BackendStabilizer},
		{"tableau", BackendStabilizer},
	}
	for _, c := range cases {
		got, err := ParseBackendKind(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBackendKind(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	// String is the canonical spelling: it must parse back to the kind.
	for _, k := range []BackendKind{BackendAuto, BackendState, BackendStabilizer} {
		got, err := ParseBackendKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseBackendKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseBackendKind("gpu"); err == nil || !strings.Contains(err.Error(), `"gpu"`) {
		t.Errorf("ParseBackendKind(gpu) err = %v, want an error naming the input", err)
	}
}

func TestNoiseModelCliffordSafe(t *testing.T) {
	if !Ideal().CliffordSafe() {
		t.Error("ideal model not Clifford-safe")
	}
	pauliOnly := Ideal()
	pauliOnly.Gate1QError, pauliOnly.Gate2QError, pauliOnly.ReadoutError = 0.01, 0.02, 0.03
	if !pauliOnly.CliffordSafe() {
		t.Error("depolarizing + assignment-flip model not Clifford-safe")
	}
	if DeviceNoise().CliffordSafe() {
		t.Error("device model (finite T1/T2) reported Clifford-safe")
	}
	t2Only := Ideal()
	t2Only.T2 = 50_000
	if t2Only.CliffordSafe() {
		t.Error("finite T2 reported Clifford-safe")
	}
	detuned := Ideal()
	detuned.QuasiStaticSigma = 1e-4
	if detuned.CliffordSafe() {
		t.Error("quasi-static detuning reported Clifford-safe")
	}
}

// opaqueBackend is a state vector whose dynamic type is not *State: a
// channel that reaches for the amplitudes through a *State assertion
// panics on it, as it would on a stabilizer tableau.
type opaqueBackend struct{ *State }

// TestBackendNoiseChannelsMirrorStateChannels checks the determinism
// contract of the noise channels on registers other than the state vector:
// under a Clifford-safe model each one applies the same Paulis and
// consumes the same draws whether or not the register is a *State, so it
// never needs the amplitudes and an engine that swaps backends keeps every
// later draw aligned.
func TestBackendNoiseChannelsMirrorStateChannels(t *testing.T) {
	n := Ideal()
	n.Gate1QError, n.Gate2QError, n.ReadoutError = 0.5, 0.5, 0.3
	if !n.CliffordSafe() {
		t.Fatal("test model must be Clifford-safe")
	}
	// The opaque register hides the amplitudes: amplitude damping, which
	// needs them, must panic on it.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("amplitude damping ran on an opaque register")
			}
		}()
		DeviceNoise().ApplyIdle(opaqueBackend{NewState(1)}, 0, 500, stats.NewRNG(1))
	}()
	channels := []struct {
		name string
		run  func(b Backend, rng *stats.RNG) int
	}{
		{"depolarizing", func(b Backend, r *stats.RNG) int { n.ApplyDepolarizing(b, 0, 0.5, r); return 0 }},
		{"after-gate-1q", func(b Backend, r *stats.RNG) int { n.AfterGate1Q(b, 1, r); return 0 }},
		{"after-gate-2q", func(b Backend, r *stats.RNG) int { n.AfterGate2Q(b, 0, 1, r); return 0 }},
		{"idle-echo", func(b Backend, r *stats.RNG) int { n.ApplyIdleDetuned(b, 0, 500, 0, true, r); return 0 }},
		{"idle-no-echo", func(b Backend, r *stats.RNG) int { n.ApplyIdleDetuned(b, 0, 500, 0, false, r); return 0 }},
		{"noisy-measure", func(b Backend, r *stats.RNG) int { return n.NoisyMeasure(b, 1, r) }},
	}
	for _, ch := range channels {
		t.Run(ch.name, func(t *testing.T) {
			changed := 0
			for seed := uint64(1); seed <= 64; seed++ {
				init := NewState(2)
				init.H(0)
				init.RY(1, 0.7)
				init.CNOT(0, 1)
				a, b := init.Clone(), init.Clone()
				ra, rb := stats.NewRNG(seed), stats.NewRNG(seed)
				ma := ch.run(a, ra)
				mb := ch.run(opaqueBackend{b}, rb)
				if ma != mb {
					t.Fatalf("seed %d: outcome %d, want %d", seed, mb, ma)
				}
				for i := 0; i < 4; i++ {
					if a.Amplitude(i) != b.Amplitude(i) {
						t.Fatalf("seed %d: amp[%d] = %v, want %v", seed, i, b.Amplitude(i), a.Amplitude(i))
					}
				}
				// Equal next draws mean both paths consumed the same
				// number of draws.
				if xa, xb := ra.Float64(), rb.Float64(); xa != xb {
					t.Fatalf("seed %d: draw streams diverged (%v vs %v)", seed, xb, xa)
				}
				if a.Fidelity(init) < 1-1e-12 {
					changed++
				}
			}
			if ch.name == "idle-no-echo" {
				if changed != 0 {
					t.Fatalf("non-echo idle changed the state in %d shots, want 0", changed)
				}
			} else if changed == 0 {
				t.Fatal("channel never acted in 64 shots; the comparison is vacuous")
			}
		})
	}
}

func TestProjectConditionsState(t *testing.T) {
	s := NewState(2)
	s.H(0)
	s.CNOT(0, 1)
	s.Project(0, 1)
	if !approxEq(s.Prob1(1), 1) || !approxEq(s.Norm(), 1) {
		t.Fatalf("after Project(0,1) on a Bell pair: P1(q1) = %v, norm %v", s.Prob1(1), s.Norm())
	}
	// Projection draws nothing, so it never disturbs an RNG stream; it
	// must refuse an outcome the state cannot produce.
	for _, c := range []struct{ q, outcome int }{{0, 0}, {1, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Project(%d, %d) on |11⟩ did not panic", c.q, c.outcome)
				}
			}()
			s.Clone().Project(c.q, c.outcome)
		}()
	}
}

func TestKernelString(t *testing.T) {
	cases := []struct {
		k    K1
		want string
	}{
		{KX(), "X"}, {KY(), "Y"}, {KZ(), "Z"}, {KH(), "H"}, {KS(), "S"}, {KSdg(), "Sdg"},
		{KernelRX(math.Pi / 3), "Generic"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if got := KernelT().String(); !strings.HasPrefix(got, "Phase(") {
		t.Errorf("T kernel String() = %q, want Phase(...)", got)
	}
	if got := KernelRZ(0.4).String(); !strings.HasPrefix(got, "Diag(") {
		t.Errorf("RZ kernel String() = %q, want Diag(...)", got)
	}
}
