// Package experiment regenerates every table and figure of the paper's
// evaluation (§6). Each experiment is a method on Suite returning a Table
// with the same rows/series the paper reports; the registry maps the
// paper's table/figure identifiers to generators for the cmd tools and the
// root benchmark harness.
//
// Absolute numbers come from the simulated substrate, so they are not
// expected to equal the paper's testbed measurements; the shapes — who
// wins, by roughly what factor, where crossovers fall — are asserted by
// the package tests and recorded against the paper in EXPERIMENTS.md.
package experiment

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"artery/internal/controller"
	"artery/internal/core"
	"artery/internal/interconnect"
	"artery/internal/predict"
	"artery/internal/readout"
	"artery/internal/stats"
)

// Table is one regenerated result: a titled grid of formatted cells.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Stages optionally carries the machine-readable per-stage latency
	// breakdown behind the table (exported as the "stages" field of the
	// schema-version-2 JSON form; empty for tables without one).
	Stages []core.StageLatency
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad+2))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Cell returns the cell at (row, col); it panics when out of range
// (experiments are fixed-shape, so a miss is a bug).
func (t *Table) Cell(row, col int) string { return t.Rows[row][col] }

// Suite holds the calibrated resources shared by the experiments.
//
// Concurrency: experiments fan independent table cells over Workers
// goroutines. Every cell derives its RNG from Seed plus a cell-specific
// salt and runs on fresh engines, so tables are identical at every
// Workers setting; the channel cache is the only shared mutable state and
// is mutex-guarded (a channel's calibration seed depends only on its
// window length, so even first-use races calibrate identically).
type Suite struct {
	Seed  uint64
	Shots int // shots per measured cell (latency experiments)
	// Workers bounds the suite's cell-level parallelism: 0 (the default)
	// uses GOMAXPROCS workers, 1 forces serial generation.
	Workers int

	topo *interconnect.Topology

	mu       sync.Mutex
	channels map[float64]*readout.Channel // keyed by window length (ns)
}

// NewSuite calibrates a suite. shots <= 0 selects a fast default suitable
// for tests; cmd tools pass larger values for smoother numbers.
func NewSuite(seed uint64, shots int) *Suite {
	if seed == 0 {
		seed = 1
	}
	if shots <= 0 {
		shots = 40
	}
	return &Suite{
		Seed:     seed,
		Shots:    shots,
		topo:     interconnect.PaperTopology(),
		channels: map[float64]*readout.Channel{},
	}
}

// channel returns (calibrating on first use) the readout channel for a
// demodulation window length. Safe for concurrent use by cell workers.
func (s *Suite) channel(windowNs float64) *readout.Channel {
	s.mu.Lock()
	if ch, ok := s.channels[windowNs]; ok {
		s.mu.Unlock()
		return ch
	}
	s.mu.Unlock()
	// Calibrate outside the lock: it is the expensive step, and the seed
	// depends only on windowNs, so concurrent calibrations of the same
	// window produce identical channels (first store wins).
	ch := readout.NewChannel(readout.DefaultCalibration(), windowNs, readout.DefaultK, stats.NewRNG(s.Seed+uint64(windowNs*1000)))
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.channels[windowNs]; ok {
		return prev
	}
	s.channels[windowNs] = ch
	return ch
}

// workerCount resolves the effective cell-level worker count.
func (s *Suite) workerCount() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachCell runs body(i) for every cell index in [0, n) on the suite's
// worker pool. Cells must be independent: each derives its own seeds and
// writes only its own output slots, so the table never depends on
// scheduling. body must not call forEachCell reentrantly.
func (s *Suite) forEachCell(n int, body func(int)) {
	workers := s.workerCount()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}

// arteryEngine builds a fresh ARTERY engine with the given predictor mode
// and thresholds over the suite's default 30 ns channel.
func (s *Suite) arteryEngine(mode predict.Mode, theta float64) *core.Engine {
	return s.arteryEngineOn(s.channel(30), mode, theta)
}

func (s *Suite) arteryEngineOn(ch *readout.Channel, mode predict.Mode, theta float64) *core.Engine {
	cfg := predict.Config{Theta: theta, Mode: mode}
	ctrl := controller.NewArtery(controller.DefaultUnits(), s.topo, predict.New(cfg, ch))
	e := core.NewEngine(ctrl, ch, nil)
	e.SimulateState = false
	return e
}

// baselineEngine builds a named baseline engine.
func (s *Suite) baselineEngine(name string, overhead float64) *core.Engine {
	e := core.NewEngine(controller.NewBaseline(name, overhead, s.topo), s.channel(30), nil)
	e.SimulateState = false
	return e
}

// engines returns the five evaluation engines in presentation order.
func (s *Suite) engines() []*core.Engine {
	return []*core.Engine{
		s.baselineEngine("QubiC", controller.QubiCOverheadNs),
		s.baselineEngine("HERQULES", controller.HERQULESOverheadNs),
		s.baselineEngine("Salathe et al.", controller.SalatheOverheadNs),
		s.baselineEngine("Reuer et al.", controller.ReuerOverheadNs),
		s.arteryEngine(predict.ModeCombined, 0.91),
	}
}

// Generator produces one experiment's table.
type Generator func(*Suite) *Table

// Registry maps experiment IDs to generators.
var Registry = map[string]Generator{
	"fig2":   (*Suite).Figure2,
	"fig4":   (*Suite).Figure4,
	"fig12a": (*Suite).Figure12a,
	"fig12b": (*Suite).Figure12b,
	"fig12c": (*Suite).Figure12c,
	"fig12d": (*Suite).Figure12d,
	"table1": (*Suite).Table1,
	"fig13":  (*Suite).Figure13,
	"fig14":  (*Suite).Figure14,
	"fig15a": (*Suite).Figure15a,
	"fig15b": (*Suite).Figure15b,
	"table2": (*Suite).Table2,
	"fig16":  (*Suite).Figure16,
	"fig17":  (*Suite).Figure17,
}

// IDs returns the registry keys in stable order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func us(ns float64) string   { return fmt.Sprintf("%.2f", ns/1000) }
func pct(x float64) string   { return fmt.Sprintf("%.1f%%", 100*x) }
func ratio(x float64) string { return fmt.Sprintf("%.2fx", x) }
