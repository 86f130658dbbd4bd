package experiments

import (
	"fmt"
	"os"
	"testing"

	"cachepirate/internal/counters"
	"cachepirate/internal/machine"
)

// TestTune prints solo ground-truth metrics at reduced L3 sizes for
// suite benchmarks; used for calibration only (TUNE=1 go test ...).
func TestTune(t *testing.T) {
	if os.Getenv("TUNE") == "" {
		t.Skip("calibration helper")
	}
	benches := []string{"omnetpp", "lbm", "mcf", "libquantum", "sphinx3", "gromacs", "cigar"}
	for _, b := range benches {
		for _, ways := range []int{1, 2, 4, 8, 12, 16} {
			mcfg := machine.WithL3Ways(machine.NehalemConfig(), ways)
			mcfg.Cores = 1
			m := machine.MustNew(mcfg)
			m.MustAttach(0, factory(b)(1))
			if err := m.RunInstructions(0, 2_000_000); err != nil { // warm
				t.Fatal(err)
			}
			iv, err := counters.Interval(m, func() error { return m.RunInstructions(0, 500_000) })
			if err != nil {
				t.Fatal(err)
			}
			s := iv[0]
			fmt.Printf("%-12s %4.1fMB  cpi=%6.3f fetch=%6.2f%% miss=%6.2f%% bw=%5.2fGB/s\n",
				b, float64(ways)*0.5, s.CPI(), s.FetchRatio()*100, s.MissRatio()*100,
				s.BandwidthGBs(mcfg.CPU.FreqHz))
		}
	}
}
