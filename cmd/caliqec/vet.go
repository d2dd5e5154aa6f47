package main

import (
	"context"
	"fmt"
	"io"

	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
)

// runVet statically checks the domain IR without running the simulator:
// for each lattice kind it builds the example memory circuits (pristine and
// mid-deformation) and validates them — probability ranges, resolvable
// detector/observable record references, deterministic detector indexing —
// then replays a full isolate→enlarge→reintegrate→shrink session and
// verifies the Deformer's instruction history for legality against the
// kind's instruction set (paper Table 1).
func runVet(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("vet", stderr)
	d := fs.Int("d", 3, "code distance of the example circuits")
	p := fs.Float64("p", 1e-3, "physical error rate of the example circuits")
	rounds := fs.Int("rounds", 0, "QEC rounds (default d)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := checkDistance(*d); err != nil {
		return err
	}
	if *rounds == 0 {
		*rounds = *d
	}
	bad := 0
	check := func(what string, err error) {
		if err != nil {
			bad++
			fmt.Fprintf(stdout, "FAIL %-40s %v\n", what, err)
		} else {
			fmt.Fprintf(stdout, "ok   %s\n", what)
		}
	}
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		lat := lattice.New(kind, *d, *d)
		patch := code.NewPatch(lat)
		check(fmt.Sprintf("%v d=%d pristine patch", kind, *d), patch.Validate())

		c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: *rounds, Basis: lattice.BasisZ, Noise: code.UniformNoise(*p)})
		check(fmt.Sprintf("%v d=%d memory circuit", kind, *d), errOrValidate(c, err))

		// A full deformation session: isolate the central data qubit,
		// enlarge, reintegrate, shrink back — then verify both the
		// mid-session circuit and the complete instruction history.
		df := deform.NewDeformer(code.NewPatch(lat))
		q := lat.DataID[[2]int{*d / 2, *d / 2}]
		_, err = df.IsolateRegion([]int{q}, "vet")
		check(fmt.Sprintf("%v d=%d isolate central qubit", kind, *d), err)
		check(fmt.Sprintf("%v d=%d enlarge (PatchQ_AD)", kind, *d), df.Enlarge(true))
		cDef, err := df.Patch.MemoryCircuit(code.MemoryOptions{Rounds: *rounds, Basis: lattice.BasisZ, Noise: code.UniformNoise(*p)})
		check(fmt.Sprintf("%v d=%d deformed memory circuit", kind, *d), errOrValidate(cDef, err))
		check(fmt.Sprintf("%v d=%d reintegrate", kind, *d), df.Reintegrate("vet"))
		check(fmt.Sprintf("%v d=%d shrink", kind, *d), df.Shrink(true))

		issues := deform.VerifyLog(kind, df.History)
		for _, is := range issues {
			bad++
			fmt.Fprintf(stdout, "FAIL %v d=%d history: %v\n", kind, *d, is)
		}
		if len(issues) == 0 {
			fmt.Fprintf(stdout, "ok   %v d=%d deformation history (%d entries)\n", kind, *d, len(df.History))
		}
	}
	if bad > 0 {
		return fmt.Errorf("vet: %d check(s) failed", bad)
	}
	return nil
}

// errOrValidate folds a build error and a validation error into one.
func errOrValidate(c *circuit.Circuit, err error) error {
	if err != nil {
		return err
	}
	return c.Validate()
}
