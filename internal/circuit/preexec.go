package circuit

import "fmt"

// PreExecCase classifies a feedback site per Figure 3 of the paper.
type PreExecCase int

// The four pre-execution cases of Figure 3 (b).
const (
	// Case1Independent: the branch acts only on qubits other than the read
	// qubit, with no blocking predecessors — gates pre-execute immediately
	// once the predictor commits (e.g. data-qubit correction in QEC, state
	// transfer corrections).
	Case1Independent PreExecCase = iota + 1
	// Case2Ancilla: the branch contains multi-qubit gates that involve the
	// read qubit; pre-execution is legal on an ancilla that holds the
	// post-collapse classical state of the read qubit.
	Case2Ancilla
	// Case3ReadQubit: the branch operates directly on the read qubit (e.g.
	// active reset); the gate may only fire at the end of the readout, but
	// prediction still removes the classical-processing latency.
	Case3ReadQubit
	// Case4Irreversible: the branch contains a measurement or reset —
	// irreversible, so pre-execution is forbidden.
	Case4Irreversible
)

func (c PreExecCase) String() string {
	switch c {
	case Case1Independent:
		return "case1-independent"
	case Case2Ancilla:
		return "case2-ancilla"
	case Case3ReadQubit:
		return "case3-read-qubit"
	case Case4Irreversible:
		return "case4-irreversible"
	default:
		return fmt.Sprintf("case(%d)", int(c))
	}
}

// PreExecutable reports whether the case permits any pre-execution.
func (c PreExecCase) PreExecutable() bool { return c != Case4Irreversible }

// SiteAnalysis is the result of analyzing one feedback site.
type SiteAnalysis struct {
	Site        int         // instruction index of the feedback
	Case        PreExecCase // Figure-3 classification
	ReadQubit   int
	BranchQubit map[int]bool // qubits used by either branch body
	// RecoveryOnOne/Zero are the inverse programs that undo a wrongly
	// pre-executed OnOne/OnZero body. Nil for case 4.
	RecoveryOnOne  []Instruction
	RecoveryOnZero []Instruction
	// NeedsAncilla lists read-qubit-involving two-qubit gates (case 2) that
	// must be re-targeted onto an ancilla during pre-execution.
	NeedsAncilla bool
	// FloorAtReadoutEnd is true when the branch may not start before the
	// readout pulse completes (case 3).
	FloorAtReadoutEnd bool
}

// AnalyzeSite classifies the feedback site at instruction index site of c,
// applying the DAG constraint analysis of §3. It panics if the instruction
// is not a feedback.
func AnalyzeSite(c *Circuit, site int) *SiteAnalysis {
	if site < 0 || site >= len(c.Ins) || c.Ins[site].Kind != OpFeedback {
		panic(fmt.Sprintf("circuit: instruction %d is not a feedback site", site))
	}
	fb := c.Ins[site].Feedback
	a := &SiteAnalysis{
		Site:        site,
		ReadQubit:   fb.Qubit,
		BranchQubit: map[int]bool{},
	}

	irreversible := false
	touchesRead1Q := false
	touchesRead2Q := false
	for _, body := range [][]Instruction{fb.OnOne, fb.OnZero} {
		for _, in := range body {
			switch in.Kind {
			case OpMeasure, OpReset, OpFeedback:
				irreversible = true
			case OpGate:
				for _, q := range in.Gate.QubitList() {
					a.BranchQubit[q] = true
					if q == fb.Qubit {
						if in.Gate.Kind.TwoQubit() {
							touchesRead2Q = true
						} else {
							touchesRead1Q = true
						}
					}
				}
			}
		}
	}

	switch {
	case irreversible:
		a.Case = Case4Irreversible
	case touchesRead1Q:
		// Single-qubit operations on the read qubit itself (reset-style
		// feedback) can only fire once the readout completes.
		a.Case = Case3ReadQubit
		a.FloorAtReadoutEnd = true
	case touchesRead2Q:
		a.Case = Case2Ancilla
		a.NeedsAncilla = true
	default:
		a.Case = Case1Independent
	}

	if a.Case != Case4Irreversible {
		a.RecoveryOnOne = InverseOf(fb.OnOne)
		a.RecoveryOnZero = InverseOf(fb.OnZero)
	}
	return a
}

// AnalyzeAll classifies every feedback site of c.
func AnalyzeAll(c *Circuit) []*SiteAnalysis {
	sites := c.FeedbackSites()
	out := make([]*SiteAnalysis, len(sites))
	for i, s := range sites {
		out[i] = AnalyzeSite(c, s)
	}
	return out
}
