package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(l.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads in ledger", path)
	}
	return &l, nil
}

// verdict judges one (workload, metric) pair. worsening is how much worse
// the new median is than the old as a share of the old (negative: better).
// A pair whose run-to-run spread is wider than its bound cannot be called
// unchanged: it is unresolved unless every new run beats — or loses to —
// every old run.
func verdict(old, cur ledgerMetric) (worsening float64, v string) {
	if old.Median == 0 {
		return 0, "unresolved"
	}
	worsening = (cur.Median - old.Median) / old.Median
	lowerBetter := old.Better != "higher"
	if !lowerBetter {
		worsening = -worsening
	}
	allBetter, allWorse := separated(old.Values, cur.Values, lowerBetter)
	spread := old.Spread
	if cur.Spread > spread {
		spread = cur.Spread
	}
	switch {
	case spread > old.Bound && allBetter:
		return worsening, "better"
	case spread > old.Bound && allWorse && worsening > old.Bound:
		return worsening, "WORSE"
	case spread > old.Bound:
		return worsening, "unresolved"
	case worsening > old.Bound:
		return worsening, "WORSE"
	case worsening < -spread && allBetter:
		return worsening, "better"
	}
	return worsening, "within"
}

// separated reports whether every new value is better than every old one,
// and whether every new value is worse than every old one.
func separated(old, cur []float64, lowerBetter bool) (allBetter, allWorse bool) {
	if len(old) == 0 || len(cur) == 0 {
		return false, false
	}
	lo, hi := old[0], old[0]
	for _, v := range old {
		lo, hi = min(lo, v), max(hi, v)
	}
	allBelow, allAbove := true, true
	for _, v := range cur {
		allBelow = allBelow && v < lo
		allAbove = allAbove && v > hi
	}
	if lowerBetter {
		return allBelow, allAbove
	}
	return allAbove, allBelow
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians, their ratio and its base, the bound and the verdict, and
// returns non-zero when any row is WORSE or a workload's failed share of
// operations rose.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readLedger(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: compare:", err)
		return 2
	}
	cur, err := readLedger(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: compare:", err)
		return 2
	}
	return compareLedgers(old, cur, stdout)
}

func compareLedgers(old, cur *ledger, stdout io.Writer) int {
	if old.Env != cur.Env || old.Scale != cur.Scale || old.Seconds != cur.Seconds {
		fmt.Fprintf(stdout, "note: the two ledgers were not taken under the same conditions\n  old: %+v scale=%s seconds=%g\n  new: %+v scale=%s seconds=%g\n", old.Env, old.Scale, old.Seconds, cur.Env, cur.Scale, cur.Seconds)
	}
	names := make([]string, 0, len(old.Workloads))
	for n := range old.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	bad := 0
	fmt.Fprintf(stdout, "%-13s %-22s %13s %13s %22s %6s  %s\n", "workload", "metric", "old median", "new median", "new/old (base: old)", "bound", "verdict")
	for _, wn := range names {
		ow := old.Workloads[wn]
		cw, ok := cur.Workloads[wn]
		if !ok {
			fmt.Fprintf(stdout, "%-13s missing from the new ledger\n", wn)
			bad++
			continue
		}
		for _, d := range endToEnd {
			om, have := ow.EndToEnd[d.Name]
			cm, haveNew := cw.EndToEnd[d.Name]
			if !have || !haveNew {
				fmt.Fprintf(stdout, "%-13s %-22s missing from one ledger\n", wn, d.Name)
				bad++
				continue
			}
			_, v := verdict(om, cm)
			if v == "WORSE" {
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-22s %13.6g %13.6g %15.4f of %-6.4g %5.0f%%  %s\n", wn, d.Name, om.Median, cm.Median, cm.Median/om.Median, om.Median, 100*om.Bound, v)
		}
		switch {
		case cw.OpsFailedFrac > ow.OpsFailedFrac:
			fmt.Fprintf(stdout, "%-13s ops_failed_frac rose from %g to %g  WORSE\n", wn, ow.OpsFailedFrac, cw.OpsFailedFrac)
			bad++
		case !cw.Correct:
			fmt.Fprintf(stdout, "%-13s the new run failed its correctness gate  WORSE\n", wn)
			bad++
		}
		if fmt.Sprint(ow.Hashes) != fmt.Sprint(cw.Hashes) {
			fmt.Fprintf(stdout, "%-13s tuning history changed: %v → %v\n", wn, ow.Hashes, cw.Hashes)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
