package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// scrape is one /metrics reading: each series name (labels stripped)
// mapped to the sum of its values over every label set, so per-node
// {tech="…"} and per-route series fold into one number. A family the
// server does not export is simply missing, and every metric derived
// from it reads as absent: families get renamed and deleted, and a
// benchmark that failed on that would block the change it should measure.
type scrape map[string]float64

// parseProm reads the Prometheus text exposition format.
func parseProm(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, err := splitSeries(line)
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("prom: series %q has no value", name)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: series %q: %v", name, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// splitSeries splits "name{labels} value" into the name and the text
// after the label set. Label values are quoted and may hold braces,
// spaces and escaped quotes.
func splitSeries(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return "", "", fmt.Errorf("prom: malformed line %q", line)
	}
	name = line[:i]
	if line[i] != '{' {
		return name, line[i:], nil
	}
	inQuote := false
	for j := i + 1; j < len(line); j++ {
		switch c := line[j]; {
		case inQuote && c == '\\':
			j++
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return name, line[j+1:], nil
		}
	}
	return "", "", fmt.Errorf("prom: unterminated label set in %q", line)
}

// delta is after−before for one series; ok is false when either reading
// lacks it.
func delta(before, after scrape, name string) (float64, bool) {
	b, ok1 := before[name]
	a, ok2 := after[name]
	return a - b, ok1 && ok2
}

// procStat is what /proc tells about a process: CPU time spent in user
// and kernel mode, and the resident-set high-water mark.
type procStat struct {
	cpuTicks uint64
	hwmKB    uint64
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// readProc samples /proc/<pid>/stat and /proc/<pid>/status.
func readProc(pid int) (procStat, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	ticks, err := parseStatTicks(string(raw))
	if err != nil {
		return procStat{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStat{}, err
	}
	hwm, err := parseStatusKB(string(status), "VmHWM")
	if err != nil {
		return procStat{}, err
	}
	return procStat{cpuTicks: ticks, hwmKB: hwm}, nil
}

// parseStatTicks returns utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 is parenthesized
// and may contain spaces, so fields are counted from its closing paren.
func parseStatTicks(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc: malformed stat %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so field k is f[k-3].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc: short stat %q", stat)
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc: utime: %v", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc: stime: %v", err)
	}
	return utime + stime, nil
}

// parseStatusKB reads one "Key:   N kB" line of /proc/<pid>/status.
func parseStatusKB(status, key string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc: no %s in status", key)
}
