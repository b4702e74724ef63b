package artery_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"artery"
)

// TestRunStreamConsistentWithReport checks the per-shot update stream
// partitions the final Report exactly: event count equals shots, the
// stream's running latency sum reproduces the report mean bit-for-bit
// (same merge-order arithmetic), and the commit/accuracy tallies agree.
func TestRunStreamConsistentWithReport(t *testing.T) {
	sys := artery.MustNew(artery.WithSeed(3), artery.WithoutStateSim(), artery.WithWorkers(2))
	const shots = 60
	var updates []artery.ShotUpdate
	rep, err := sys.RunStream(context.Background(), "ARTERY", artery.QRW(3), shots, func(u artery.ShotUpdate) {
		updates = append(updates, u)
	})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if len(updates) != shots || rep.Shots != shots {
		t.Fatalf("got %d updates, report %d shots, want %d", len(updates), rep.Shots, shots)
	}
	var sum float64
	sites, commits, correct := 0, 0, 0
	for i, u := range updates {
		if u.Shot != i {
			t.Fatalf("update %d has shot index %d: stream out of order", i, u.Shot)
		}
		sum += u.LatencyNs
		sites += u.Sites
		commits += u.Commits
		correct += u.Correct
	}
	if got := sum / float64(shots) / 1000; got != rep.MeanLatencyUs {
		t.Errorf("stream mean %v µs != report mean %v µs", got, rep.MeanLatencyUs)
	}
	if got := float64(commits) / float64(sites); got != rep.CommitRate {
		t.Errorf("stream commit rate %v != report %v", got, rep.CommitRate)
	}
	if got := float64(correct) / float64(commits); commits > 0 && got != rep.Accuracy {
		t.Errorf("stream accuracy %v != report %v", got, rep.Accuracy)
	}
}

// TestRunStreamDeterministicAcrossWorkers checks the update stream —
// not just the aggregate — is bit-identical at any worker count.
func TestRunStreamDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []artery.ShotUpdate {
		sys := artery.MustNew(artery.WithSeed(9), artery.WithoutStateSim(), artery.WithWorkers(workers))
		var updates []artery.ShotUpdate
		_, err := sys.RunStream(context.Background(), "ARTERY", artery.QRW(3), 40, func(u artery.ShotUpdate) {
			if math.IsNaN(u.Fidelity) {
				u.Fidelity = -1 // NaN != NaN would defeat DeepEqual below
			}
			updates = append(updates, u)
		})
		if err != nil {
			t.Fatalf("RunStream(workers=%d): %v", workers, err)
		}
		return updates
	}
	serial := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); !reflect.DeepEqual(got, serial) {
			t.Errorf("update stream at workers=%d differs from serial", w)
		}
	}
}

// TestControllerRegistryNames locks the exported controller list: the
// registry refactor must keep it byte-identical.
func TestControllerRegistryNames(t *testing.T) {
	want := []string{"ARTERY", "QubiC", "HERQULES", "Salathe et al.", "Reuer et al."}
	if got := artery.ControllerNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("ControllerNames() = %#v, want %#v", got, want)
	}
}

// TestWorkloadByNameRegistry spot-checks the public registry wrapper and
// its error path.
func TestWorkloadByNameRegistry(t *testing.T) {
	wl, err := artery.WorkloadByName("qrw", 4)
	if err != nil || wl.Name != "QRW-4" {
		t.Fatalf("WorkloadByName(qrw, 4) = %v, %v", wl, err)
	}
	if got := artery.WorkloadNames(); len(got) != 9 || got[0] != "qrw" {
		t.Errorf("WorkloadNames() = %v", got)
	}
	if _, err := artery.WorkloadByName("bogus", 1); err == nil {
		t.Error("WorkloadByName(bogus) succeeded, want error")
	}
}

// TestValidate checks the calibration-free validator agrees with the
// constructor, and with a run on the backend checks a run makes before its
// first shot.
func TestValidate(t *testing.T) {
	wl := artery.QRW(3)
	if err := artery.Validate(wl); err != nil {
		t.Errorf("zero options invalid: %v", err)
	}
	if err := artery.Validate(wl, artery.WithTheta(1.5)); err == nil {
		t.Error("Theta=1.5 validated, want error")
	}
	if err := artery.Validate(wl, artery.WithHistoryDepth(99)); err == nil {
		t.Error("HistoryDepth=99 validated, want error")
	}
	if err := artery.Validate(nil); err == nil {
		t.Error("nil workload validated, want error")
	}
	// DQT's ry rotations are not Clifford: the stabilizer backend rejects
	// the circuit unless state simulation (the only backend user) is off.
	dqt, stab := artery.DQT(2), artery.WithBackend("stabilizer")
	if err := artery.Validate(dqt, stab); !errors.Is(err, artery.ErrNonClifford) {
		t.Errorf("DQT on the stabilizer backend: err = %v, want ErrNonClifford", err)
	}
	if err := artery.Validate(dqt, stab, artery.WithoutStateSim()); err != nil {
		t.Errorf("DQT on the stabilizer backend without state simulation: %v", err)
	}
	sys := artery.MustNew(artery.WithSeed(1), stab)
	if _, err := sys.RunContext(context.Background(), dqt, 1); !errors.Is(err, artery.ErrNonClifford) {
		t.Errorf("run disagrees with Validate: err = %v, want ErrNonClifford", err)
	}
}
