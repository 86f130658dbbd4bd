package experiments

import (
	"fmt"
	"strings"

	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
	"cachepirate/internal/report"
	"cachepirate/internal/simulate"
	"cachepirate/internal/stackdist"
	"cachepirate/internal/workload"
)

// SuiteCharacterisation characterises the synthetic benchmark suite
// (every benchmark by default): for each benchmark a solo ground-truth
// sweep over reduced L3 sizes (no Pirate — the machine's L3 is
// rescaled directly) reporting CPI, fetch/miss ratios and bandwidth,
// plus the working-set knees the stack-distance analysis finds. This
// is the calibration evidence behind DESIGN.md's substitution table.
// Each size measures IntervalInstrs after a 4x warm-up; the
// stack-distance trace is TraceRecords long.
func SuiteCharacterisation(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{ID: "suite", Title: "suite characterisation: solo ground truth and stack-distance knees"}
	err := eachBench(opts, res, opts.benchList(workload.Names()...), func(bench string, part *Result) error {
		spec := workload.MustByName(bench)
		t := report.NewTable(
			fmt.Sprintf("%s (%s) — solo ground truth\n  %s", spec.Name, spec.Paper, spec.Description),
			"L3", "CPI", "fetch", "miss", "BW")
		for _, ways := range []int{1, 2, 4, 8, 16} {
			mcfg := machine.WithL3Ways(machine.NehalemConfig(), ways)
			mcfg.Cores = 1
			m, err := machine.New(mcfg)
			if err != nil {
				return err
			}
			if err := m.Attach(0, spec.New(opts.Seed)); err != nil {
				return err
			}
			if err := m.RunInstructions(0, opts.IntervalInstrs*4); err != nil {
				return err
			}
			iv, err := counters.Interval(m, func() error { return m.RunInstructions(0, opts.IntervalInstrs) })
			if err != nil {
				return err
			}
			s := iv[0]
			t.Add(report.MB(mcfg.L3.Size), report.F(s.CPI(), 3),
				report.Pct(s.FetchRatio(), 2), report.Pct(s.MissRatio(), 2),
				report.GBs(s.BandwidthGBs(mcfg.CPU.FreqHz)))
		}
		part.Add(t)

		tr := simulate.CaptureTrace(spec.New, opts.Seed, 0, opts.TraceRecords)
		h, err := stackdist.Analyze(tr, (16<<20)/64)
		if err != nil {
			return err
		}
		var ks []string
		for _, k := range h.WorkingSetKnees(0.05) {
			ks = append(ks, report.MB(k))
		}
		if len(ks) == 0 {
			ks = []string{"none above threshold"}
		}
		part.Notef("%s: stack-distance working-set knees: %s; cold ratio %s",
			bench, strings.Join(ks, ", "), report.Pct(h.ColdRatio(), 1))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
