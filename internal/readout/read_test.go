package readout

import (
	"math"
	"reflect"
	"testing"

	"artery/internal/fault"
	"artery/internal/stats"
	"artery/internal/trace"
)

// TestReadMatchesTwoPassOracle pins Channel.Read against the sample-level
// two-pass formulation it replaces: synthesize the pulse, glitch it,
// classify the full pulse, then demodulate the window bits in a second
// pass, and annotate the span with the classification. Over seeds, both
// states, 10/30/100 ns windows and glitch rates 0 and 0.9, with a short T1
// so mid-readout decays occur, the records and trace events must be equal
// and the physics stream and the fault session must end at the same
// positions.
func TestReadMatchesTwoPassOracle(t *testing.T) {
	cal := DefaultCalibration()
	cal.T1Ns = 20_000 // ~10% of |1⟩ pulses decay mid-readout
	decayed, glitched := 0, 0
	for _, windowNs := range []float64{10, 30, 100} {
		ch := NewChannel(cal, windowNs, DefaultK, stats.NewRNG(3))
		for _, rate := range []float64{0, 0.9} {
			cfg := fault.DefaultPolicy()
			cfg.IQGlitchRate = rate
			cfg.TriggerJitterNs = 10 // enables the session; probes its stream below
			inj := fault.NewInjector(cfg)
			for seed := uint64(1); seed <= 3; seed++ {
				rngA, rngB := stats.NewRNG(seed), stats.NewRNG(seed)
				sessA, sessB := inj.Session(stats.NewRNG(seed+10)), inj.Session(stats.NewRNG(seed+10))
				recA, recB := trace.NewRecorder(0), trace.NewRecorder(0)
				dst := make([]int, 0, ch.Windows())
				for shot := 0; shot < 30; shot++ {
					state := shot % 2
					spanA, spanB := recA.Shot(shot), recB.Shot(shot)
					spanA.SetSite(0, 1)
					spanB.SetSite(0, 1)

					got := ch.Read(state, rngA, sessA, spanA, dst)

					p := ch.Cal.Synthesize(state, rngB)
					sessB.GlitchIQ(p.Samples)
					want := Record{Truth: ch.Classifier.ClassifyFull(p), Bits: ch.Classifier.WindowBits(p, 0)}
					spanB.Annotate(trace.StageClassifyFull, 0, ch.Cal.DurationNs, want.Truth, 0)

					if !reflect.DeepEqual(got, want) {
						t.Fatalf("window %v ns, rate %v, seed %d, shot %d: Read %+v, oracle %+v",
							windowNs, rate, seed, shot, got, want)
					}
					if len(got.Bits) != ch.Windows() {
						t.Fatalf("window %v ns: %d bits, Windows() = %d", windowNs, len(got.Bits), ch.Windows())
					}
					if !math.IsInf(p.DecayedAtNs, 1) {
						decayed++
					}
					recA.Commit(spanA)
					recB.Commit(spanB)
				}
				if a, b := rngA.Uint64(), rngB.Uint64(); a != b {
					t.Fatalf("window %v ns, rate %v, seed %d: physics streams diverged", windowNs, rate, seed)
				}
				if sessA.C != sessB.C || sessA.TriggerJitter() != sessB.TriggerJitter() {
					t.Fatalf("window %v ns, rate %v, seed %d: fault sessions diverged (%+v vs %+v)",
						windowNs, rate, seed, sessA.C, sessB.C)
				}
				glitched += sessB.C.Glitches
				if !reflect.DeepEqual(recA.Events(), recB.Events()) {
					t.Fatalf("window %v ns, rate %v, seed %d: trace events differ", windowNs, rate, seed)
				}
			}
		}
	}
	if decayed == 0 || glitched == 0 {
		t.Fatalf("oracle sweep exercised %d decayed and %d glitched pulses, want both > 0", decayed, glitched)
	}
}

// TestReadZeroAllocsWarm asserts the engine's per-site readout allocates
// nothing once its scratch record and carrier template are warm and the
// caller's dst holds Windows() bits.
func TestReadZeroAllocsWarm(t *testing.T) {
	ch := NewChannel(DefaultCalibration(), DefaultWinNs, DefaultK, stats.NewRNG(1))
	rng := stats.NewRNG(4)
	dst := make([]int, 0, ch.Windows())
	ch.Read(1, rng, nil, nil, dst)
	if n := testing.AllocsPerRun(20, func() { ch.Read(1, rng, nil, nil, dst) }); n != 0 {
		t.Fatalf("warm Read allocates %.1f times per call, want 0", n)
	}
}

// BenchmarkChannelRead measures one feedback site's readout — synthesis,
// glitch hook and the one-pass demodulation — into a caller-sized dst.
func BenchmarkChannelRead(b *testing.B) {
	ch := NewChannel(DefaultCalibration(), DefaultWinNs, DefaultK, stats.NewRNG(1))
	rng := stats.NewRNG(2)
	dst := make([]int, 0, ch.Windows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Read(i&1, rng, nil, nil, dst)
	}
}
