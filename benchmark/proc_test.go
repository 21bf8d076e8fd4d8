package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command field may hold spaces and parentheses; utime=1234 and
	// stime=66 are fields 14 and 15.
	stat := []byte("4242 (auto tuned) (x)) S 1 4242 4242 0 -1 4194560 900 0 3 0 1234 66 0 0 20 0 9 0 1000 123456 789 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 13.0 {
		t.Errorf("cpu seconds = %v, want 13 (1300 ticks)", got)
	}
	for _, bad := range []string{"", "1 (x) S 1 2 3", "no parens at all"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := []byte("Name:\tautotuned\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\nThreads:\t9\n")
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 20480 {
		t.Errorf("VmHWM = %d, %v; want 20480", kb, err)
	}
	if kb, err := parseStatusKB(status, "VmRSS"); err != nil || kb != 10240 {
		t.Errorf("VmRSS = %d, %v; want 10240", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key was not reported")
	}
}

func TestProcReadersOnThisProcess(t *testing.T) {
	pid := os.Getpid()
	if _, err := cpuSeconds(pid); err != nil {
		t.Errorf("cpuSeconds(self): %v", err)
	}
	if mb, err := peakRSSMB(pid); err != nil || mb <= 0 {
		t.Errorf("peakRSSMB(self) = %v, %v; want a positive size", mb, err)
	}
}
