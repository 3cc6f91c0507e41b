package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes this binary with
// "--" followed by the command's flags, so the test sees the real exit
// status and standard error.
func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, "--"); i > 0 {
		os.Args = append([]string{"plbfit"}, os.Args[i+1:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitTwo: malformed flags end the command with exit status 2
// and one line on standard error, never a panic.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "xx"},
		{"-size", "0"},
		{"-device", "nosuchgpu"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"--"}, args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("plbfit %v: %v, want exit status 2", args, err)
		}
		msg := stderr.String()
		if strings.Contains(msg, "panic:") || strings.Count(msg, "\n") != 1 {
			t.Errorf("plbfit %v: stderr %q, want one error line", args, msg)
		}
	}
}
