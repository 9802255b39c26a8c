//go:build !linux

package main

import "os/exec"

// killWithParent is a no-op off Linux: the benchmark's own cleanup paths
// stop the child.
func killWithParent(*exec.Cmd) {}
