package experiment

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"artery/internal/core"
)

// One small shared suite: channel calibration dominates setup cost, and
// the shape assertions hold at modest shot counts.
var suite = NewSuite(7, 24)

func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q: %v", cell, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig4", "fig12a", "fig12b", "fig12c", "fig12d",
		"table1", "fig13", "fig14", "fig15a", "fig15b", "table2", "fig16", "fig17"}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
	for _, id := range want {
		if Registry[id] == nil {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatal("IDs() incomplete")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.Note("n=%d", 3)
	s := tab.String()
	for _, want := range []string{"X", "demo", "a", "1", "note: n=3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFigure2Wall(t *testing.T) {
	tab := suite.Figure2()
	// The last row carries the 660 ns wall.
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "latency wall" || last[1] != "660" {
		t.Fatalf("wall row = %v", last)
	}
}

func TestFigure4DistributionsMatch(t *testing.T) {
	tab := suite.Figure4()
	p1 := parseF(t, tab.Cell(0, 2))
	p2 := parseF(t, tab.Cell(1, 2))
	if diff := p1 - p2; diff > 0.1 || diff < -0.1 {
		t.Fatalf("prior/posterior P(1) differ too much: %v vs %v", p1, p2)
	}
	if p1 < 0.4 || p1 > 0.75 {
		t.Fatalf("P(1) = %v outside the QRW coin regime", p1)
	}
}

func TestTable1Shape(t *testing.T) {
	tab := suite.Table1()
	if len(tab.Rows) != 5 {
		t.Fatalf("%d method rows", len(tab.Rows))
	}
	// Row order: QubiC, HERQULES, Salathe, Reuer, ARTERY.
	artery, qubic := tab.Rows[4], tab.Rows[0]
	if artery[0] != "ARTERY" || qubic[0] != "QubiC" {
		t.Fatalf("row order wrong: %v / %v", artery[0], qubic[0])
	}
	wins := 0
	for c := 1; c < len(qubic); c++ {
		a, q := parseF(t, artery[c]), parseF(t, qubic[c])
		if a < q {
			wins++
		}
	}
	// ARTERY must win every sweep cell except possibly reset (floored).
	if wins < len(qubic)-2 {
		t.Fatalf("ARTERY wins only %d of %d cells", wins, len(qubic)-1)
	}
	// Latency grows with iteration count within each family: QRW columns
	// are 1..4 (cols 1-4).
	q1, q25 := parseF(t, qubic[1]), parseF(t, qubic[4])
	if q25 <= q1 {
		t.Fatal("QubiC QRW latency not increasing with steps")
	}
	// The headline speedup note must report > 1.5x.
	note := tab.Notes[0]
	i := strings.LastIndex(note, "speedup ")
	sp := parseF(t, strings.TrimSpace(note[i+len("speedup "):]))
	if sp < 1.5 {
		t.Fatalf("headline speedup %vx, want > 1.5x (paper: 2.07x)", sp)
	}
}

func TestFigure12aShape(t *testing.T) {
	tab := suite.Figure12a()
	corrSpeed := parseF(t, tab.Cell(0, 3))
	resetSpeed := parseF(t, tab.Cell(1, 3))
	cycleSpeed := parseF(t, tab.Cell(2, 3))
	if corrSpeed < 2 {
		t.Fatalf("correction speedup %vx, want >= 2x (paper 4.8x)", corrSpeed)
	}
	if resetSpeed < 1.02 || resetSpeed > 1.3 {
		t.Fatalf("reset speedup %vx, want modest ~1.08x", resetSpeed)
	}
	if cycleSpeed < 1.01 || cycleSpeed > 1.3 {
		t.Fatalf("cycle speedup %vx, want modest ~1.06x", cycleSpeed)
	}
	if corrSpeed <= resetSpeed {
		t.Fatal("correction speedup should dominate reset speedup")
	}
}

func TestFigure12bArteryWins(t *testing.T) {
	tab := suite.Figure12b()
	// At the deepest cycle count both LERs are nonzero and ARTERY's lower.
	last := tab.Rows[len(tab.Rows)-1]
	q := parseF(t, last[1])
	a := parseF(t, last[2])
	if a >= q {
		t.Fatalf("ARTERY LER %v%% not below QubiC %v%% at cycle 30", a, q)
	}
	if q <= 0 {
		t.Fatal("QubiC LER zero at cycle 30 — noise model too weak")
	}
}

func TestFigure12bMonotoneCycles(t *testing.T) {
	tab := suite.Figure12b()
	first := parseF(t, tab.Rows[0][2])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][2])
	if last <= first {
		t.Fatalf("ARTERY LER not growing with cycles: %v -> %v", first, last)
	}
}

func TestFigure12cImprovement(t *testing.T) {
	tab := suite.Figure12c()
	last := tab.Rows[len(tab.Rows)-1]
	g := parseF(t, last[1])
	a := parseF(t, last[2])
	if a >= g {
		t.Fatalf("ARTERY LER %v%% not below Google reference %v%% at cycle 25", a, g)
	}
	if g < 40 || g > 50 {
		t.Fatalf("Google reference at cycle 25 = %v%%, want ~44.6%%", g)
	}
}

func TestFigure12dCrossover(t *testing.T) {
	tab := suite.Figure12d()
	// Rows d=3..15 then blank then the crossover row.
	saved3 := parseF(t, tab.Cell(0, 2))
	saved15 := parseF(t, tab.Cell(6, 2))
	if saved3 <= 0 {
		t.Fatalf("no benefit at d=3: %v", saved3)
	}
	if saved15 > 0 {
		t.Fatalf("benefit persists at d=15: %v", saved15)
	}
	crossRow := tab.Rows[len(tab.Rows)-1]
	if crossRow[1] != "13" {
		t.Fatalf("last beneficial distance %s, want 13", crossRow[1])
	}
}

func TestFigure13ArteryFidelityWins(t *testing.T) {
	tab := suite.Figure13()
	for _, row := range tab.Rows {
		qubic := parseF(t, row[1])
		reuer := parseF(t, row[4])
		artery := parseF(t, row[5])
		if artery < qubic-0.02 {
			t.Fatalf("%s: ARTERY fidelity %v well below QubiC %v", row[0], artery, qubic)
		}
		if artery < reuer-0.02 {
			t.Fatalf("%s: ARTERY fidelity %v below slowest baseline %v", row[0], artery, reuer)
		}
	}
}

func TestFigure14CombinedFastest(t *testing.T) {
	tab := suite.Figure14()
	// Averaged over benchmarks, combined latency <= readout-only latency.
	var histSum, readSum, combSum float64
	for _, row := range tab.Rows {
		histSum += parseF(t, row[1])
		readSum += parseF(t, row[3])
		combSum += parseF(t, row[5])
	}
	if combSum > readSum {
		t.Fatalf("combined (%v) slower than readout-only (%v)", combSum, readSum)
	}
	// History-only mean accuracy is lower than combined on balanced
	// workloads (paper: 0.4-0.7 for DQT/RUS).
	var histAcc, combAcc float64
	for _, row := range tab.Rows {
		histAcc += parseF(t, row[2])
		combAcc += parseF(t, row[6])
	}
	if combAcc <= histAcc {
		t.Fatal("combined accuracy not above history-only accuracy")
	}
}

func TestFigure15aAccuracyRises(t *testing.T) {
	tab := suite.Figure15a()
	first := parseF(t, tab.Rows[0][1])
	mid := parseF(t, tab.Rows[3][1])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	if !(first < mid && mid <= last+1) {
		t.Fatalf("accuracy not rising: %v %v %v", first, mid, last)
	}
	if last < 90 {
		t.Fatalf("late accuracy %v%%, want > 90%%", last)
	}
}

func TestFigure15bQECBestAccuracy(t *testing.T) {
	tab := suite.Figure15b()
	// QEC (row 0) has the highest mean accuracy and lowest latency among
	// correction-style benchmarks (row order: QEC, QRW, RCNOT, RUS, DQT, reset).
	qecAcc := parseF(t, tab.Cell(0, 2))
	qrwAcc := parseF(t, tab.Cell(1, 2))
	if qecAcc < qrwAcc-1 {
		t.Fatalf("QEC accuracy %v below QRW %v", qecAcc, qrwAcc)
	}
	for r := 0; r < len(tab.Rows); r++ {
		mn, mean, mx := parseF(t, tab.Cell(r, 1)), parseF(t, tab.Cell(r, 2)), parseF(t, tab.Cell(r, 3))
		if !(mn <= mean && mean <= mx) {
			t.Fatalf("row %d: min/mean/max out of order", r)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tab := suite.Table2()
	// Bandwidth rows: raw = 64, combined lowest.
	for r := 0; r < 3; r++ {
		raw := parseF(t, tab.Cell(r, 2))
		huff := parseF(t, tab.Cell(r, 3))
		rle := parseF(t, tab.Cell(r, 4))
		comb := parseF(t, tab.Cell(r, 5))
		if raw != 64 {
			t.Fatalf("raw bandwidth %v, want 64", raw)
		}
		if !(comb < rle && rle < huff && huff < raw) {
			t.Fatalf("bandwidth ordering violated in row %d: %v %v %v %v", r, raw, huff, rle, comb)
		}
	}
	// DAC rows: raw = 4, combined highest.
	for r := 3; r < 6; r++ {
		raw := parseF(t, tab.Cell(r, 2))
		comb := parseF(t, tab.Cell(r, 5))
		if raw != 4 {
			t.Fatalf("raw DACs %v, want 4", raw)
		}
		if comb < 10 {
			t.Fatalf("combined DACs %v, want >= 10 (paper: 19-25)", comb)
		}
	}
	// Latency rows: raw is "-", others in the 4-60 ns range.
	for r := 6; r < 9; r++ {
		if tab.Cell(r, 2) != "-" {
			t.Fatal("raw decode latency should be '-'")
		}
		for c := 3; c <= 5; c++ {
			v := parseF(t, tab.Cell(r, c))
			if v < 4 || v > 60 {
				t.Fatalf("decode latency %v ns out of range", v)
			}
		}
	}
}

func TestFigure16BestWindowNear30(t *testing.T) {
	tab := suite.Figure16()
	// Find the window with minimum latency; paper: 0.03 µs.
	bestRow, bestLat := -1, 0.0
	for r := range tab.Rows {
		lat := parseF(t, tab.Cell(r, 1))
		if bestRow < 0 || lat < bestLat {
			bestRow, bestLat = r, lat
		}
	}
	w := parseF(t, tab.Cell(bestRow, 0))
	if w > 0.06 {
		t.Fatalf("best window %v µs, want <= 0.05 (paper: 0.03)", w)
	}
	// The 0.1 µs window must be slower than the best.
	lastLat := parseF(t, tab.Cell(len(tab.Rows)-1, 1))
	if lastLat <= bestLat {
		t.Fatal("0.1 µs window not slower than best")
	}
}

func TestFigure17ThresholdTradeoff(t *testing.T) {
	tab := suite.Figure17()
	// Accuracy must rise with the threshold.
	accLo := parseF(t, tab.Cell(0, 2))
	accHi := parseF(t, tab.Cell(len(tab.Rows)-1, 2))
	if accHi < accLo {
		t.Fatalf("accuracy fell with threshold: %v -> %v", accLo, accHi)
	}
	// The chosen threshold is an interior optimum (not the loosest).
	note := tab.Notes[0]
	if !strings.Contains(note, "0.") {
		t.Fatalf("threshold note malformed: %s", note)
	}
}

func TestCalibrationSummary(t *testing.T) {
	tab := suite.ReadoutCalibrationSummary()
	fid := parseF(t, tab.Cell(0, 1))
	if fid < 97 {
		t.Fatalf("assignment fidelity %v%%, want ~99%%", fid)
	}
}

func TestAllExperimentsRender(t *testing.T) {
	for _, id := range IDs() {
		tab := Registry[id](suite)
		if tab == nil || len(tab.Rows) == 0 {
			t.Fatalf("%s produced an empty table", id)
		}
		if tab.String() == "" {
			t.Fatalf("%s renders empty", id)
		}
	}
}

func TestAblationTimeBucketsShowsOverconfidence(t *testing.T) {
	tab := suite.AblationTimeBuckets()
	singleAcc := parseF(t, tab.Cell(0, 1))
	bucketAcc := parseF(t, tab.Cell(1, 1))
	if bucketAcc <= singleAcc {
		t.Fatalf("time-bucketed accuracy %v not above single-table %v", bucketAcc, singleAcc)
	}
	// The single table commits earlier — that's exactly its failure mode.
	singleLat := parseF(t, tab.Cell(0, 2))
	bucketLat := parseF(t, tab.Cell(1, 2))
	if singleLat > bucketLat {
		t.Fatalf("single-table decisions (%v) later than bucketed (%v)", singleLat, bucketLat)
	}
}

func TestAblationSmoothingTradeoff(t *testing.T) {
	tab := suite.AblationSmoothing()
	// With the time-bucketed table every smoothing level stays calibrated
	// (the bucketing fixed the dominant bias); assert no level collapses
	// and that heavy smoothing delays commits relative to weak smoothing.
	for r := range tab.Rows {
		if acc := parseF(t, tab.Cell(r, 1)); acc < 85 {
			t.Fatalf("smoothing row %d accuracy %v%% collapsed", r, acc)
		}
	}
	weakLat := parseF(t, tab.Cell(0, 2))
	heavyLat := parseF(t, tab.Cell(3, 2))
	if heavyLat < weakLat {
		t.Fatalf("heavy smoothing commits earlier (%v) than weak (%v)", heavyLat, weakLat)
	}
}

func TestAblationInterconnectScales(t *testing.T) {
	tab := suite.AblationInterconnect()
	small := parseF(t, tab.Cell(0, 3))
	large := parseF(t, tab.Cell(2, 3))
	if large <= small {
		t.Fatalf("hierarchy saving did not grow with size: %vx -> %vx", small, large)
	}
}

func TestAblationCodecOrder(t *testing.T) {
	tab := suite.AblationCodecOrder()
	strictWins := 0
	for r := range tab.Rows {
		paperOrder := parseF(t, tab.Cell(r, 3))
		reverse := parseF(t, tab.Cell(r, 4))
		// The paper's order must never be materially worse...
		if paperOrder > reverse*1.05 {
			t.Fatalf("row %d: huffman→rle (%v) materially worse than rle→huffman (%v)", r, paperOrder, reverse)
		}
		if paperOrder < reverse {
			strictWins++
		}
		// ...and the combined codec must beat both individual stages.
		huff := parseF(t, tab.Cell(r, 1))
		rle := parseF(t, tab.Cell(r, 2))
		if paperOrder >= huff || paperOrder >= rle {
			t.Fatalf("row %d: combined (%v) not below individual stages (%v, %v)", r, paperOrder, huff, rle)
		}
	}
	if strictWins == 0 {
		t.Fatal("paper order never strictly better than the reverse")
	}
}

func TestExtraRegistryRenders(t *testing.T) {
	for id, gen := range ExtraRegistry {
		tab := gen(suite)
		if tab == nil || len(tab.Rows) == 0 {
			t.Fatalf("%s produced an empty table", id)
		}
	}
}

func TestExtraCircuitLevelQEC(t *testing.T) {
	tab := suite.ExtraCircuitLevelQEC()
	// At the deepest cycle count ARTERY's circuit-level LER is below QubiC's.
	last := tab.Rows[len(tab.Rows)-1]
	q := parseF(t, last[1])
	a := parseF(t, last[2])
	if a >= q {
		t.Fatalf("circuit-level ARTERY LER %v%% not below QubiC %v%%", a, q)
	}
}

func TestExtraLatencyBudget(t *testing.T) {
	tab := suite.ExtraLatencyBudget()
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for r := range tab.Rows {
		total := parseF(t, tab.Cell(r, 6))
		sum := 0.0
		for c := 1; c <= 5; c++ {
			sum += parseF(t, tab.Cell(r, c))
		}
		if diff := sum - total; diff > 3 || diff < -3 { // rounding to whole ns
			t.Fatalf("row %d: stages sum %v != total %v", r, sum, total)
		}
	}
	// Reset (last row) is dominated by the floor wait.
	floor := parseF(t, tab.Cell(4, 5))
	if floor < 1000 {
		t.Fatalf("reset floor wait %v ns, want > 1 µs", floor)
	}
}

func TestTableCSVExport(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Header: []string{"a", "b"}}
	tab.AddRow("1", "x,y") // comma must be quoted
	tab.Note("hello")
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"# T — demo", "a,b", `1,"x,y"`, "# hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("csv missing %q:\n%s", want, out)
		}
	}
}

// TestTableJSONRoundTrip decodes WriteJSON output with encoding/json:
// every document carries schema_version 2, and the grid and the per-stage
// breakdown survive the round trip.
func TestTableJSONRoundTrip(t *testing.T) {
	staged := &Table{ID: "X", Title: "stages", Header: []string{"a"}}
	staged.AddRow("1")
	staged.Stages = []core.StageLatency{{Stage: "readout", Count: 10, TotalNs: 3000, MeanNs: 300}}
	for _, tab := range []*Table{suite.Figure2(), staged} {
		var b strings.Builder
		if err := tab.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), `"schema_version": 2`) {
			t.Fatalf("%s: export missing schema_version:\n%s", tab.ID, b.String())
		}
		var back jsonTable
		if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
			t.Fatal(err)
		}
		if back.SchemaVersion != TableSchemaVersion || back.ID != tab.ID ||
			!reflect.DeepEqual(back.Rows, tab.Rows) || !reflect.DeepEqual(back.Stages, tab.Stages) {
			t.Fatalf("%s: json round trip changed the table: %+v", tab.ID, back)
		}
	}
}

// TestExtraStageBreakdownPartition checks the xtr-stages table: ARTERY's
// stage totals must sum to its total feedback latency.
func TestExtraStageBreakdownPartition(t *testing.T) {
	tab := suite.ExtraStageBreakdown()
	if len(tab.Stages) == 0 {
		t.Fatal("no stage metadata attached")
	}
	var sum float64
	for _, sr := range tab.Stages {
		sum += sr.TotalNs
	}
	// The note records "<stage total> ns vs <shot total> ns ...".
	var stageTotal, shotTotal float64
	if _, err := fmt.Sscanf(tab.Notes[0], "ARTERY stage totals sum to %f ns vs %f ns", &stageTotal, &shotTotal); err != nil {
		t.Fatalf("note format: %q: %v", tab.Notes[0], err)
	}
	if diff := sum - shotTotal; diff > 1 || diff < -1 {
		t.Fatalf("stage totals %v do not partition shot latency %v", sum, shotTotal)
	}
}

func TestTableWriteAs(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Header: []string{"a"}}
	tab.AddRow("1")
	for _, f := range []string{"", "text", "csv", "json"} {
		var b strings.Builder
		if err := tab.WriteAs(&b, f); err != nil {
			t.Fatalf("format %q: %v", f, err)
		}
		if b.Len() == 0 {
			t.Fatalf("format %q produced nothing", f)
		}
	}
	var b strings.Builder
	if err := tab.WriteAs(&b, "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestExtraSPRT(t *testing.T) {
	tab := suite.ExtraSPRT()
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for r := range tab.Rows {
		accT := parseF(t, tab.Cell(r, 1))
		accS := parseF(t, tab.Cell(r, 3))
		if accT < 80 || accS < 80 {
			t.Fatalf("row %d: accuracies collapsed: table %v sprt %v", r, accT, accS)
		}
		latT := parseF(t, tab.Cell(r, 2))
		latS := parseF(t, tab.Cell(r, 4))
		if latT >= 2.16 || latS >= 2.16 {
			t.Fatalf("row %d: no early decisions", r)
		}
	}
}

func TestExtraPlatforms(t *testing.T) {
	tab := suite.ExtraPlatforms()
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for r := range tab.Rows {
		frac := parseF(t, tab.Cell(r, 3))
		if frac <= 0 || frac >= 100 {
			t.Fatalf("row %d: decision fraction %v%% implausible", r, frac)
		}
		if acc := parseF(t, tab.Cell(r, 4)); acc < 80 {
			t.Fatalf("row %d: accuracy %v%%", r, acc)
		}
	}
	// Absolute decision time grows with readout duration across platforms.
	sc := parseF(t, tab.Cell(0, 2))
	ion := parseF(t, tab.Cell(2, 2))
	if ion <= sc {
		t.Fatalf("trapped-ion decisions (%v µs) not slower than superconducting (%v µs)", ion, sc)
	}
}

func TestExtraHistoryDepth(t *testing.T) {
	tab := suite.ExtraHistoryDepth()
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Table size grows with k; accuracy never collapses.
	prevSize := 0.0
	for r := range tab.Rows {
		if acc := parseF(t, tab.Cell(r, 1)); acc < 82 {
			t.Fatalf("k row %d accuracy %v%%", r, acc)
		}
		size := parseF(t, tab.Cell(r, 4))
		if size <= prevSize {
			t.Fatalf("table size not growing with k: %v after %v", size, prevSize)
		}
		prevSize = size
	}
}

func TestExtraDecoders(t *testing.T) {
	tab := suite.ExtraDecoders()
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	lut := parseF(t, tab.Cell(0, 1))
	for r := 1; r < 3; r++ {
		other := parseF(t, tab.Cell(r, 1))
		// The exact LUT is never materially worse than the heuristics.
		if lut > other+3 {
			t.Fatalf("LUT LER %v%% above %s %v%%", lut, tab.Cell(r, 0), other)
		}
	}
}
