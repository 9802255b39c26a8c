package main

import (
	"os/exec"
	"syscall"
)

// killWithParent has the kernel kill the child if the benchmark itself
// dies without running its cleanup (SIGKILL, crash).
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
