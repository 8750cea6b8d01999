package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// runCLI runs pcapsim's main body with the given arguments and returns
// its exit code and what it wrote to stdout and stderr.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(dir + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(dir + "/stderr")
	if err != nil {
		t.Fatal(err)
	}
	savedArgs, savedFlags, savedOut, savedErr := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() {
		os.Args, flag.CommandLine, os.Stdout, os.Stderr = savedArgs, savedFlags, savedOut, savedErr
	}()
	os.Args = append([]string{"pcapsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("pcapsim", flag.ExitOnError)
	os.Stdout, os.Stderr = outF, errF
	code = run()
	outF.Close()
	errF.Close()
	out, err := os.ReadFile(dir + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	errOut, err := os.ReadFile(dir + "/stderr")
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), string(errOut)
}

// TestSeedZeroRejected: Options reads a zero seed as the default, so
// -seed 0 would print exactly the -seed 42 run. It is rejected as a
// usage error naming the flag, before anything runs.
func TestSeedZeroRejected(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-exp", "table2", "-fast", "-seed", "0")
	if code != 2 || !strings.Contains(stderr, "-seed") {
		t.Fatalf("exit %d, stderr %q: want exit 2 naming -seed", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("rejected run printed %q", stdout)
	}
	if code, stdout, _ := runCLI(t, "-exp", "table1", "-fast", "-seed", "7"); code != 0 || !strings.Contains(stdout, "table1") {
		t.Fatalf("-seed 7: exit %d, stdout %q", code, stdout)
	}
}

// TestNegativeParallelRejected: a negative -parallel is a usage error
// naming the flag, for artifact and scenario runs alike, before anything
// runs.
func TestNegativeParallelRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table1", "-fast", "-parallel", "-4"},
		{"-scenario", "../../examples/scenarios/minimal.json", "-fast", "-parallel", "-4"},
	} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 2 || !strings.Contains(stderr, "-parallel") {
			t.Fatalf("%v: exit %d, stderr %q: want exit 2 naming -parallel", args, code, stderr)
		}
		if stdout != "" {
			t.Fatalf("%v: rejected run printed %q", args, stdout)
		}
	}
}
