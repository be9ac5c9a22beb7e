//go:build !linux

package main

import "time"

func rusage() (cpu time.Duration, maxRSSKB int64) { return 0, 0 }

func fsType(string) string { return "unknown" }
