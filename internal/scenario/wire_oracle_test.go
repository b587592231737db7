package scenario_test

import (
	"bytes"
	"testing"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// TestDirectIngestMatchesWirePath is the differential oracle for the
// accounting flush, which hands each packet straight to the central
// database. A second database, fed from a packet tap through the wire
// codec (encode, decode, ingest — the path push and the daemon take),
// must end the run with a byte-equal export and the same duplicate count,
// and the bytes it saw on the wire must total the telemetry counter. The
// fault-injected case carries wasted work, so v2 wire records are covered.
func TestDirectIngestMatchesWirePath(t *testing.T) {
	cases := []struct {
		name   string
		seed   uint64
		faults bool
	}{
		{"faults-off", 7, false},
		{"faults-on", 13, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := accounting.NewCentral()
			wireBytes, wastedPackets := 0, 0
			tap := func(_ des.Time, p *accounting.Packet) {
				data, err := p.Encode()
				if err != nil {
					t.Errorf("encode: %v", err)
					return
				}
				wireBytes += len(data)
				for i := range p.Jobs {
					if p.Jobs[i].WastedCoreSeconds != 0 || p.Jobs[i].WastedNUs != 0 {
						wastedPackets++
						break
					}
				}
				q, err := accounting.DecodePacket(data)
				if err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				if err := ref.Ingest(q); err != nil {
					t.Errorf("reference ingest: %v", err)
				}
			}
			reg := telemetry.New()
			opts := append(experiments.StandardOptions(experiments.Quick),
				scenario.WithObserver(scenario.LiveTelemetry(reg), scenario.TapPackets(tap)))
			if tc.faults {
				opts = append(opts, scenario.WithFaultIntensity(1),
					scenario.WithCheckpointRestart(15*des.Minute, 0))
			}
			res, err := scenario.Run(scenario.New(tc.seed, opts...))
			if err != nil {
				t.Fatal(err)
			}

			var got, want bytes.Buffer
			if err := res.Central.Export(&got); err != nil {
				t.Fatal(err)
			}
			if err := ref.Export(&want); err != nil {
				t.Fatal(err)
			}
			if len(res.Central.Jobs()) == 0 {
				t.Fatal("oracle vacuous: no job records")
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("direct-ingest export differs from the wire path (%d vs %d bytes)",
					got.Len(), want.Len())
			}
			if d, w := res.Central.Duplicates(), ref.Duplicates(); d != w {
				t.Errorf("duplicates: direct %d, wire %d", d, w)
			}
			counter := reg.Counter("tg_accounting_wire_bytes_total", "").With().Value()
			if float64(wireBytes) != counter {
				t.Errorf("tapped wire bytes %d, tg_accounting_wire_bytes_total %v", wireBytes, counter)
			}
			if tc.faults && wastedPackets == 0 {
				t.Error("fault case vacuous: no packet carried wasted work (v2 records)")
			}
		})
	}
}
