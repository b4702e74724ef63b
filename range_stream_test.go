package artery_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"artery"
)

// rangeStream runs the global shot range [offset, offset+shots) on a
// fresh system (same seed) and returns its updates, NaN-normalized so
// DeepEqual can compare them.
func rangeStream(t *testing.T, offset, shots, workers int) []artery.ShotUpdate {
	t.Helper()
	sys := artery.MustNew(artery.WithSeed(11), artery.WithoutStateSim(), artery.WithWorkers(workers))
	var updates []artery.ShotUpdate
	rep, err := sys.RunRangeStream(context.Background(), "ARTERY", artery.QRW(3), offset, shots, func(u artery.ShotUpdate) {
		if math.IsNaN(u.Fidelity) {
			u.Fidelity = -1
		}
		updates = append(updates, u)
	})
	if err != nil {
		t.Fatalf("RunRangeStream([%d,%d)): %v", offset, offset+shots, err)
	}
	if rep.Shots != shots {
		t.Fatalf("RunRangeStream([%d,%d)) reported %d shots", offset, offset+shots, rep.Shots)
	}
	return updates
}

// TestRunRangeStreamShardsBitIdentical is the facade-level sharding
// contract: contiguous range runs on fresh same-seed systems concatenate
// to the unsharded update stream — including each update's ordered
// per-stage deltas — and updates carry global shot indices.
func TestRunRangeStreamShardsBitIdentical(t *testing.T) {
	const shots = 30
	full := rangeStream(t, 0, shots, 2)
	if len(full) != shots {
		t.Fatalf("full stream has %d updates, want %d", len(full), shots)
	}
	for _, split := range [][]int{{0, 11, shots}, {0, 1, 29, shots}} {
		var got []artery.ShotUpdate
		for s := 0; s+1 < len(split); s++ {
			got = append(got, rangeStream(t, split[s], split[s+1]-split[s], 3)...)
		}
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("split %v: concatenated range streams differ from the full stream", split)
		}
	}
	for i, u := range full {
		if u.Shot != i {
			t.Fatalf("update %d carries shot %d", i, u.Shot)
		}
		if len(u.Stages) == 0 || u.Stages[0].Stage.String() != "payload" {
			t.Fatalf("update %d stage deltas %+v: want payload first", i, u.Stages)
		}
	}
	// Offset updates carry global indices.
	off := rangeStream(t, 7, 3, 1)
	for i, u := range off {
		if u.Shot != 7+i {
			t.Fatalf("offset update %d carries shot %d, want %d", i, u.Shot, 7+i)
		}
	}
}

// TestRunRangeStreamRejectsNegativeOffset checks the typed error path.
func TestRunRangeStreamRejectsNegativeOffset(t *testing.T) {
	sys := artery.MustNew(artery.WithoutStateSim())
	_, err := sys.RunRangeStream(context.Background(), "ARTERY", artery.QRW(2), -1, 5, nil)
	if err == nil {
		t.Fatal("negative offset accepted")
	}
}
