package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"caliqec/internal/stream"
)

// TestServeFlagsToConfig pins how serve's flags map onto the decode pool:
// plain serve blocks on a full queue and gives every tenant the default
// configuration, -fleet sheds and applies the tenant weights, rate and
// stream cap, and a malformed weight list or a removed flag is an error.
func TestServeFlagsToConfig(t *testing.T) {
	est := stream.EstimatorConfig{Window: 1000}
	fleetTenant := stream.TenantConfig{FrameRate: 20000, Burst: 2000, MaxStreams: 8}
	weighted := func(w int) stream.TenantConfig {
		tc := fleetTenant
		tc.Weight = w
		return tc
	}
	cases := []struct {
		name string
		args []string
		want stream.Config
		bad  bool
	}{
		{
			name: "plain serve blocks with the default tenant",
			args: []string{"-workers", "3", "-queue", "64", "-tenant-rate", "5", "-tenant-weights", "1:3"},
			want: stream.Config{Workers: 3, StreamQueue: 64, Backpressure: stream.Block, Estimator: est},
		},
		{
			name: "fleet sheds with weights, rate and stream caps",
			args: []string{"-fleet", "-workers", "1", "-queue", "32", "-quantum", "16",
				"-tenant-rate", "20000", "-tenant-burst", "2000", "-tenant-streams", "8",
				"-tenant-weights", "1:3,2:1"},
			want: stream.Config{
				Workers: 1, StreamQueue: 32, Quantum: 16, Backpressure: stream.Shed,
				Default:   fleetTenant,
				Tenants:   map[uint32]stream.TenantConfig{1: weighted(3), 2: weighted(1)},
				Estimator: est,
			},
		},
		{name: "weight without an id", args: []string{"-fleet", "-tenant-weights", "3"}, bad: true},
		{name: "zero weight", args: []string{"-fleet", "-tenant-weights", "1:0"}, bad: true},
		{name: "non-numeric tenant", args: []string{"-fleet", "-tenant-weights", "a:2"}, bad: true},
		{name: "removed pool-size flag", args: []string{"-fleet-workers", "2"}, bad: true},
		{name: "removed queue flag", args: []string{"-stream-queue", "32"}, bad: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("serve", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			sf := addServeFlags(fs)
			err := fs.Parse(tc.args)
			var cfg stream.Config
			if err == nil {
				cfg, err = sf.config(est)
			}
			if tc.bad {
				if err == nil {
					t.Fatalf("%v accepted, config %+v", tc.args, cfg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cfg, tc.want) {
				t.Fatalf("config\n %+v\nwant\n %+v", cfg, tc.want)
			}
		})
	}
}
