package main

import (
	"caliqec/internal/exp"
	"context"
	"fmt"
	"io"
	"slices"
	"time"
)

// runRepro regenerates the paper's tables and figures: one experiment
// (-exp fig10) or all of them in presentation order, each printed as an
// aligned table and, with -o, written as <id>.json and <id>.csv.
//
// Experiments that sample several Monte-Carlo configurations (fit, fig13,
// cycle, the ablations) evaluate them as one batch over the engine's shared
// chunk scheduler, so -progress lines from co-scheduled specs interleave;
// each line is prefixed with its spec's label. Batching changes wall-clock
// only: every reported number is identical to sequential evaluation.
func runRepro(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := newFlags("repro", stderr)
	which := fs.String("exp", "all", "experiment ID (see -list) or 'all'")
	seed := fs.Uint64("seed", 2025, "random seed")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	outDir := fs.String("o", "", "also write <id>.json and <id>.csv into this directory")
	progress := fs.Bool("progress", false, "print live Monte-Carlo status lines to stderr")
	s := addSessionFlags(fs, false)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	exps := exp.All()
	if *list {
		for _, e := range exps {
			fmt.Fprintln(stdout, e.ID)
		}
		return nil
	}
	if *which != "all" {
		exps = slices.DeleteFunc(exps, func(e exp.Experiment) bool { return e.ID != *which })
		if len(exps) == 0 {
			fmt.Fprintf(stderr, "unknown experiment %q; try -list\n", *which)
			return errUsage
		}
	}
	ctx, err = s.start(ctx, stderr)
	if err != nil {
		return err
	}
	defer s.finish(&err)
	if *progress {
		ctx = exp.WithProgress(ctx, statusLine(stderr))
	}
	for _, e := range exps {
		start := time.Now()
		rep, err := e.Run(ctx, *seed)
		if *progress {
			fmt.Fprint(stderr, "\r\x1b[K")
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprint(stdout, rep.Render())
		if *outDir != "" {
			if err := rep.WriteFiles(*outDir); err != nil {
				return fmt.Errorf("%s: writing files: %w", e.ID, err)
			}
		}
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	return nil
}

// statusLine returns a progress reporter that rewrites one live status
// line on w. It needs no lock: the mc engine never runs two Progress calls
// of one evaluation or batch at once.
func statusLine(w io.Writer) exp.ProgressFunc {
	return func(label string, shots, total, failures int) {
		fmt.Fprintf(w, "\r\x1b[K%s: %d/%d shots, %d failures", label, shots, total, failures)
	}
}
