package workload

import (
	"strings"
	"testing"
)

// TestByNameMatchesConstructors checks every registered name dispatches
// to the same constructor the direct API exposes.
func TestByNameMatchesConstructors(t *testing.T) {
	cases := []struct {
		name  string
		param int
		want  *Workload
	}{
		{"qrw", 3, QRW(3)},
		{"rcnot", 2, RCNOT(2)},
		{"dqt", 2, DQT(2)},
		{"rusqnn", 4, RUSQNN(4)},
		{"reset", 5, Reset(5)},
		{"qec", 1, QECCycle(1)},
		{"eswap", 3, EntangleSwap(3)},
		{"msi", 2, MSI(2)},
		{"surface", 3, SurfaceMemory(3)},
	}
	for _, c := range cases {
		got, err := ByName(c.name, c.param)
		if err != nil {
			t.Fatalf("ByName(%q, %d): %v", c.name, c.param, err)
		}
		if got.Name != c.want.Name {
			t.Errorf("ByName(%q, %d).Name = %q, want %q", c.name, c.param, got.Name, c.want.Name)
		}
		if g, w := got.NumFeedback(), c.want.NumFeedback(); g != w {
			t.Errorf("ByName(%q, %d): %d feedback sites, want %d", c.name, c.param, g, w)
		}
		if g, w := got.Circuit.NumQubits, c.want.Circuit.NumQubits; g != w {
			t.Errorf("ByName(%q, %d): %d qubits, want %d", c.name, c.param, g, w)
		}
	}
}

// TestNamesCoverRegistry checks the published name list and the
// dispatcher agree.
func TestNamesCoverRegistry(t *testing.T) {
	names := Names()
	if len(names) != 9 {
		t.Fatalf("Names() = %v, want 9 entries", names)
	}
	for _, name := range names {
		param := 2
		if name == "surface" {
			param = 3 // the surface code needs an odd distance >= 3
		}
		if _, err := ByName(name, param); err != nil {
			t.Errorf("listed name %q does not dispatch: %v", name, err)
		}
	}
}

// TestByNameErrors checks the error paths surface as errors, not the
// constructors' panics.
func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope", 3); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown name: err = %v, want unknown-workload error", err)
	}
	if _, err := ByName("qrw", 0); err == nil || !strings.Contains(err.Error(), ">= 1") {
		t.Errorf("bad param: err = %v, want range error", err)
	}
	if _, err := ByName("surface", 4); err == nil || !strings.Contains(err.Error(), "odd") {
		t.Errorf("even distance: err = %v, want odd-distance error", err)
	}
	if _, err := ByName("surface", 27); err == nil || !strings.Contains(err.Error(), "maximum") {
		t.Errorf("huge distance: err = %v, want maximum error", err)
	}
}

// TestByNameCapsSize checks the size cap of every name without a check of
// its own: the cap itself builds, one more is an error.
func TestByNameCapsSize(t *testing.T) {
	for _, name := range Names() {
		if name == "surface" {
			continue // capped by its own distance check
		}
		if _, err := ByName(name, 100); err != nil {
			t.Errorf("ByName(%q, 100): %v", name, err)
		}
		if _, err := ByName(name, 101); err == nil || !strings.Contains(err.Error(), "maximum") {
			t.Errorf("ByName(%q, 101): err = %v, want the size cap error", name, err)
		}
	}
}
