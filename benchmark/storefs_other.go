//go:build !linux

package main

// storeFS cannot tell filesystems apart on this platform.
func storeFS(string) string { return "unknown" }
