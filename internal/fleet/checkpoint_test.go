package fleet

import (
	"reflect"
	"testing"

	"pricepower/internal/sim"
	"pricepower/internal/task"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Board: 3, Epoch: 2, Batch: 17, Round: 412,
		Time: sim.FromMillis(1700), RR: 9, Seed: 0xfee1de7e, Completed: 37,
		Tasks: []CheckpointTask{
			{Trace: 0x1234, Spec: task.Spec{
				Name: "swaptions-0", Priority: 2, MinHR: 4, MaxHR: 8, Loop: true,
				Phases: []task.Phase{{HBCostLittle: 20, SpeedupBig: 1.8}},
			}},
			{Trace: 0, Spec: task.Spec{
				Name: "x264-1", Priority: 1, MinHR: 1, MaxHR: 30,
				Phases: []task.Phase{
					{Duration: sim.FromMillis(500), HBCostLittle: 12, SpeedupBig: 2.1, SelfCapHR: 25},
					{Duration: sim.FromMillis(250), HBCostLittle: 30, SpeedupBig: 1.5},
				},
			}},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	got, err := DecodeCheckpoint(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
	// Nil image (pre-first-barrier crash) round-trips to nil.
	if b := (*Checkpoint)(nil).Encode(); b != nil {
		t.Fatalf("nil checkpoint encoded to %d bytes", len(b))
	}
	if c, err := DecodeCheckpoint(nil); c != nil || err != nil {
		t.Fatalf("DecodeCheckpoint(nil) = %v, %v", c, err)
	}
}

func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	enc := sampleCheckpoint().Encode()
	if _, err := DecodeCheckpoint(enc[:len(enc)-3]); err == nil {
		t.Error("truncated checkpoint decoded cleanly")
	}
	if _, err := DecodeCheckpoint(append(append([]byte(nil), enc...), 0xff)); err == nil {
		t.Error("trailing garbage decoded cleanly")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Error("bad magic decoded cleanly")
	}
	bad = append([]byte(nil), enc...)
	bad[1] = 99
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Error("unknown version decoded cleanly")
	}
}

// FuzzCheckpointRoundTrip asserts the codec's two contracts: arbitrary
// bytes never panic the decoder, and anything that decodes cleanly
// re-encodes to a byte-identical image (the supervisor's restart
// accounting rides on exact round-trips).
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(sampleCheckpoint().Encode())
	f.Add((&Checkpoint{Board: 1, Seed: 42}).Encode())
	f.Add([]byte{ckptMagic, ckptVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil || c == nil {
			return
		}
		enc := c.Encode()
		c2, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-decode of a clean checkpoint failed: %v", err)
		}
		// Compare canonical encodings, not structs: NaN payloads decode
		// fine but defeat == on floats.
		if string(enc) != string(c2.Encode()) {
			t.Fatalf("round trip diverged:\n got %x\nwant %x", c2.Encode(), enc)
		}
	})
}
