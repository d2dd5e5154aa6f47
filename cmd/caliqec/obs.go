package main

import (
	"bufio"
	"caliqec/internal/obs"
	"caliqec/internal/stream"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
)

// session is what a subcommand that does work holds open while it runs,
// and the observability flags that ask for it: -metrics and -trace dump the
// obs.Default registry snapshot and the run's Chrome trace-event file at
// exit, -debug-addr serves /metrics plus net/http/pprof while the command
// runs. The decoding subcommands (replay, serve) add the drift flags:
// -drift-window enables the in-pipeline estimators, -health-addr serves
// /health (+ /metrics) while the command runs, -drift-log appends drift
// events as JSON lines.
type session struct {
	metricsPath string
	tracePath   string
	debugAddr   string
	healthAddr  string
	driftLog    string
	driftWindow int

	stderr io.Writer
	tracer *obs.Tracer
	// est is the drift-estimator configuration to hand the decode
	// pipeline; its Window is 0 when monitoring is off.
	est   stream.EstimatorConfig
	stops []func() error
	sink  *obs.EventSink
	logF  *os.File
	logW  *bufio.Writer
}

// addSessionFlags registers the observability flags on fs, and the drift
// flags too when drift is set.
func addSessionFlags(fs *flag.FlagSet, drift bool) *session {
	s := &session{}
	fs.StringVar(&s.metricsPath, "metrics", "", "write the metrics snapshot (JSON) to this file at exit")
	fs.StringVar(&s.tracePath, "trace", "", "write a Chrome trace-event JSON file (chrome://tracing / Perfetto) to this file at exit")
	fs.StringVar(&s.debugAddr, "debug-addr", "", "serve /metrics and /debug/pprof on this address while the command runs")
	if drift {
		fs.StringVar(&s.healthAddr, "health-addr", "", "serve /health, /health/stream/<id> and /metrics on this address while decoding")
		fs.StringVar(&s.driftLog, "drift-log", "", "append drift events to this file as JSON lines")
		fs.IntVar(&s.driftWindow, "drift-window", 0, "drift-estimator window in frames (0 = off; defaults to 1000 when -health-addr or -drift-log is set)")
	}
	return s
}

// start opens what the flags ask for before the command does any work: a
// tracer on the returned context for -trace, the -debug-addr and
// -health-addr endpoints, the -drift-log file. If one cannot be opened it
// closes the others and fails. Otherwise the caller defers finish.
func (s *session) start(ctx context.Context, stderr io.Writer) (context.Context, error) {
	s.stderr = stderr
	if err := s.open(); err != nil {
		_ = s.close() // the open failure is the error to report
		return nil, err
	}
	if s.tracePath != "" {
		s.tracer = obs.NewTracer(nil)
		ctx = obs.WithTracer(ctx, s.tracer)
	}
	return ctx, nil
}

func (s *session) open() error {
	if s.debugAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Default.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		if err := s.serveHTTP("debug", s.debugAddr, mux, "/metrics and /debug/pprof/"); err != nil {
			return err
		}
	}
	if s.driftWindow <= 0 && s.healthAddr == "" && s.driftLog == "" {
		return nil
	}
	s.est = stream.EstimatorConfig{Window: s.driftWindow, Health: stream.NewHealthRegistry()}
	if s.est.Window <= 0 {
		s.est.Window = 1000
	}
	if s.healthAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/health", s.est.Health.Handler())
		mux.Handle("/health/stream/", s.est.Health.Handler())
		mux.Handle("/metrics", obs.Default.Handler())
		if err := s.serveHTTP("health", s.healthAddr, mux, "/health"); err != nil {
			return err
		}
	}
	if s.driftLog != "" {
		f, err := os.OpenFile(s.driftLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.logF, s.logW = f, bufio.NewWriter(f)
		s.sink = obs.NewEventSink(s.logW, 0)
		s.est.Events = s.sink
	}
	return nil
}

// serveHTTP binds addr, prints the bound URL (so port 0 is usable) and
// serves h there until the session closes.
func (s *session) serveHTTP(name, addr string, h http.Handler, paths string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s server: %w", name, err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // http.ErrServerClosed once close stops it
	}()
	s.stops = append(s.stops, func() error {
		err := srv.Close()
		<-done
		return err
	})
	fmt.Fprintf(s.stderr, "%s server on http://%s%s\n", name, ln.Addr(), paths)
	return nil
}

// close stops the endpoints, so none outlives the command, and drains the
// drift-event log, reporting dropped events so a stalled disk never
// silently loses drift evidence.
func (s *session) close() error {
	var err error
	for _, stop := range s.stops {
		err = errors.Join(err, stop())
	}
	if s.logF == nil {
		return err
	}
	err = errors.Join(err, s.sink.Close(), s.logW.Flush(), s.logF.Close())
	if n := s.sink.Dropped(); n > 0 {
		fmt.Fprintf(s.stderr, "caliqec: %d drift events dropped (slow event log)\n", n)
	}
	return err
}

// finish closes the session and writes the -metrics and -trace files. It
// runs on every path out of the command and adds its own failures to the
// command's error in *errp.
func (s *session) finish(errp *error) {
	err := s.close()
	if s.metricsPath != "" {
		err = errors.Join(err, writeFile(s.metricsPath, obs.Default.WriteJSON))
	}
	if s.tracer != nil {
		err = errors.Join(err, writeFile(s.tracePath, s.tracer.WriteJSON))
	}
	if err != nil {
		*errp = errors.Join(*errp, err)
	}
}

// writeFile creates path and fills it through a buffered writer.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	return errors.Join(err, f.Close())
}
