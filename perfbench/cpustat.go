package main

import (
	"fmt"
	"os"
	"strings"
)

// cpuStat is the aggregate cpu line of /proc/stat.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() (cpuStat, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st cpuStat
	// user nice system idle iowait irq softirq steal (guest time is
	// already counted in user).
	for i := 1; i < len(f) && i <= 8; i++ {
		var v uint64
		fmt.Sscan(f[i], &v)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st, nil
}

// stealShare is the share of CPU time stolen by the hypervisor between
// two readings.
func (s cpuStat) stealShare(before cpuStat) float64 {
	if s.total <= before.total {
		return 0
	}
	return float64(s.steal-before.steal) / float64(s.total-before.total)
}
