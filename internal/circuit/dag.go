package circuit

// DAG is the dependency graph of a circuit: instruction j depends on
// instruction i (i -> j) when they share a qubit and i precedes j in
// program order. Gate pre-execution is "altering the temporal ordering of
// operations within the DAG" (§3), so the legality analysis and the
// scheduler both operate on this structure.
type DAG struct {
	c     *Circuit
	Succ  [][]int // Succ[i] = direct successors of instruction i
	Pred  [][]int // Pred[i] = direct predecessors
	Start []float64
	End   []float64
}

// BuildDAG constructs the dependency DAG and an ASAP schedule using the
// calibrated instruction durations. Feedback branch bodies are treated as
// part of their site (the site occupies the readout window).
func BuildDAG(c *Circuit) *DAG {
	n := len(c.Ins)
	d := &DAG{
		c:     c,
		Succ:  make([][]int, n),
		Pred:  make([][]int, n),
		Start: make([]float64, n),
		End:   make([]float64, n),
	}
	last := make(map[int]int) // qubit -> index of last instruction touching it
	for i, in := range c.Ins {
		seen := map[int]bool{}
		for _, q := range in.QubitList() {
			if p, ok := last[q]; ok && !seen[p] {
				d.Succ[p] = append(d.Succ[p], i)
				d.Pred[i] = append(d.Pred[i], p)
				seen[p] = true
			}
			last[q] = i
		}
	}
	// ASAP schedule: instructions are already topologically ordered by
	// program order.
	for i, in := range c.Ins {
		start := 0.0
		for _, p := range d.Pred[i] {
			if d.End[p] > start {
				start = d.End[p]
			}
		}
		d.Start[i] = start
		d.End[i] = start + in.Duration()
	}
	return d
}
