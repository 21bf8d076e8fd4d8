package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
)

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. Linux has fixed it at 100 on every architecture Go
// supports; the standard library offers no sysconf to ask.
const clockTicksPerSecond = 100

// parseStatCPU extracts user+system CPU seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc: stat has no command field")
	}
	f := bytes.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc: stat has %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc: utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc: stime: %w", err)
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// parseStatusKB extracts one "<key>:  <n> kB" line (VmHWM, VmRSS) from the
// contents of /proc/<pid>/status.
func parseStatusKB(status []byte, key string) (int64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(key+":")) {
			continue
		}
		f := bytes.Fields(line[len(key)+1:])
		if len(f) < 1 {
			break
		}
		kb, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc: %s: %w", key, err)
		}
		return kb, nil
	}
	return 0, fmt.Errorf("proc: status has no %s line", key)
}

// cpuSeconds reads a live process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// selfCPUSeconds is this process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMB reads a live process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}
