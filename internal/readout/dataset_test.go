package readout

import (
	"reflect"
	"runtime"
	"testing"

	"artery/internal/stats"
)

// The reference corpus: the paper's full 4,000-pulse dataset (1,000 train
// / 3,000 test, §6.1), materialized pulse by pulse, and the calibration
// path that NewChannelWithTable streams. Production calibration draws only
// the training split; these tests keep the evaluation split and the
// materialized path as the oracle the streaming path must reproduce.

const datasetSize = 4000

// Dataset is the synthetic stand-in for the paper's captured corpus of
// 4,000 readout pulses: 1,000 training sequences for parameter fitting and
// 3,000 for latency/accuracy evaluation.
type Dataset struct {
	Cal   *Calibration
	Train []*Pulse
	Test  []*Pulse
	// Outcomes are the ground-truth branch outcomes (full-pulse
	// classification) of the corresponding pulses, filled by Label.
	TrainOutcomes []int
	TestOutcomes  []int
}

// GenerateDataset synthesizes a pulse corpus with the given probability of
// preparing |1⟩, split 1,000/3,000 as in the paper.
func GenerateDataset(cal *Calibration, p1 float64, rng *stats.RNG) *Dataset {
	d := &Dataset{Cal: cal}
	for i := 0; i < datasetSize; i++ {
		state := 0
		if rng.Bool(p1) {
			state = 1
		}
		p := cal.Synthesize(state, rng)
		if i < TrainSize {
			d.Train = append(d.Train, p)
		} else {
			d.Test = append(d.Test, p)
		}
	}
	return d
}

// Label computes the ground-truth outcomes of all pulses with classifier c.
func (d *Dataset) Label(c *Classifier) {
	d.TrainOutcomes = make([]int, len(d.Train))
	for i, p := range d.Train {
		d.TrainOutcomes[i] = c.ClassifyFull(p)
	}
	d.TestOutcomes = make([]int, len(d.Test))
	for i, p := range d.Test {
		d.TestOutcomes[i] = c.ClassifyFull(p)
	}
}

// referenceChannel is the materialized calibration over a balanced corpus
// (GenerateDataset(cal, 0.5, rng)): fit the classifier on the training
// split, label it, classify each training pulse's window bits, and
// attribute every prefix of every shot to its outcome in table.
func (d *Dataset) referenceChannel(windowNs float64, table *StateTable) *Channel {
	cls := NewClassifier(d.Cal, windowNs, d.Train)
	d.Label(cls)
	for i, p := range d.Train {
		bits := cls.WindowBits(p, 0)
		for n := 1; n <= len(bits); n++ {
			table.Update(bits[:n], d.TrainOutcomes[i])
		}
	}
	return &Channel{Cal: d.Cal, Classifier: cls, Table: table}
}

// TestNewChannelMatchesReference pins the streaming calibration to the
// materialized one: same classifier centers, every table counter equal,
// and rng left exactly where the training split ends (the next pulse drawn
// is the corpus's first evaluation pulse). It covers the engine default,
// extreme windows and depths, the ablation tables (one time bucket, each
// smoothing strength), and a calibration with a non-GSPS sample rate.
func TestNewChannelMatchesReference(t *testing.T) {
	type config struct {
		windowNs float64
		table    func() *StateTable
	}
	depth := func(k int) func() *StateTable { return func() *StateTable { return NewStateTable(k) } }
	opts := func(k, buckets int, smoothing float64) func() *StateTable {
		return func() *StateTable { return NewStateTableOpts(k, buckets, smoothing) }
	}
	windows := []config{{30, depth(6)}, {10, depth(1)}, {100, depth(10)}}
	ablations := []config{
		{30, opts(DefaultK, 1, 5)},
		{30, opts(DefaultK, 1, 1)},
		{30, opts(DefaultK, MaxTimeBuckets, 0.5)},
		{30, opts(DefaultK, MaxTimeBuckets, 1)},
		{30, opts(DefaultK, MaxTimeBuckets, 20)},
	}
	slowPlatform := DefaultCalibration()
	slowPlatform.DurationNs = 20_000
	slowPlatform.T1Ns = 4_000_000
	slowPlatform.NoiseSigma /= 0.7
	slowPlatform.SampleRateGSPS = 2000 / slowPlatform.DurationNs
	for _, c := range []struct {
		name    string
		cal     *Calibration
		seed    uint64
		configs []config
	}{
		{"default/seed1", DefaultCalibration(), 1, append(windows, ablations...)},
		{"default/seed42", DefaultCalibration(), 42, windows},
		{"default/seed123456789", DefaultCalibration(), 123456789, windows},
		{"slow-platform/seed7", slowPlatform, 7, []config{{slowPlatform.DurationNs / 66, depth(DefaultK)}}},
	} {
		ds := GenerateDataset(c.cal, 0.5, stats.NewRNG(c.seed))
		for _, cfg := range c.configs {
			rng := stats.NewRNG(c.seed)
			table := cfg.table()
			got := NewChannelWithTable(c.cal, cfg.windowNs, table, rng)
			want := ds.referenceChannel(cfg.windowNs, cfg.table())
			if !reflect.DeepEqual(got.Classifier, want.Classifier) {
				t.Errorf("%s window %v: classifier %+v, reference %+v", c.name, cfg.windowNs, got.Classifier, want.Classifier)
			}
			if got.Table != table {
				t.Errorf("%s window %v: channel does not hold the caller's table", c.name, cfg.windowNs)
			}
			if !reflect.DeepEqual(got.Table, want.Table) {
				t.Errorf("%s window %v k %d buckets %d: table counters differ from the reference",
					c.name, cfg.windowNs, table.K, table.buckets)
			}
			state := 0
			if rng.Bool(0.5) {
				state = 1
			}
			if next := c.cal.Synthesize(state, rng); !pulsesBitEqual(next, ds.Test[0]) {
				t.Errorf("%s window %v: rng not left at the end of the training split", c.name, cfg.windowNs)
			}
		}
	}
}

// TestNewChannelAllocations guards the streaming footprint: one default
// calibration keeps ~1 MiB of window points, where the materialized corpus
// allocated ~133 MB.
func TestNewChannelAllocations(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewChannel(DefaultCalibration(), 30, 6, stats.NewRNG(1))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("NewChannel allocated %.1f MiB, want < 4 MiB", float64(got)/(1<<20))
	}
}

// BenchmarkNewChannel measures one default calibration, the set-up every
// artery.New pays.
func BenchmarkNewChannel(b *testing.B) {
	cal := DefaultCalibration()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewChannel(cal, DefaultWinNs, DefaultK, stats.NewRNG(1))
	}
}
