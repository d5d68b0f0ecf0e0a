package sunrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"discfs/internal/bufpool"
)

// fragments record-marks each payload as one fragment, setting the
// last-fragment bit on the final one.
func fragments(payloads ...[]byte) []byte {
	var buf bytes.Buffer
	var hdr [4]byte
	for i, p := range payloads {
		v := uint32(len(p))
		if i == len(payloads)-1 {
			v |= lastFragmentBit
		}
		binary.BigEndian.PutUint32(hdr[:], v)
		buf.Write(hdr[:])
		buf.Write(p)
	}
	return buf.Bytes()
}

// refRecord is the reference reassembly readRecord must agree with: the
// concatenated payloads up to the first last-fragment header, or ok ==
// false when the stream ends early or the record grows past
// maxRecordSize.
func refRecord(stream []byte) (rec []byte, ok bool) {
	rec = []byte{}
	for {
		if len(stream) < 4 {
			return nil, false
		}
		v := binary.BigEndian.Uint32(stream)
		n := int(v &^ lastFragmentBit)
		stream = stream[4:]
		if len(rec)+n > maxRecordSize || len(stream) < n {
			return nil, false
		}
		rec = append(rec, stream[:n]...)
		stream = stream[n:]
		if v&lastFragmentBit != 0 {
			return rec, true
		}
	}
}

// FuzzReadRecord feeds arbitrary bytes to readRecord as a record-marked
// stream from an untrusted peer. It must never panic; a record it
// returns is at most maxRecordSize and equals the concatenated fragment
// payloads; a clean io.EOF means an empty stream; and every pooled
// buffer comes back, whether the record is returned and Put or the read
// fails.
func FuzzReadRecord(f *testing.F) {
	// 100 fragments whose reassembly crosses two pool size classes.
	many := make([][]byte, 100)
	for i := range many {
		many[i] = bytes.Repeat([]byte{byte(i)}, 100)
	}
	f.Add(fragments(many...))
	f.Add(fragments([]byte{}, []byte("abc")))     // zero-length fragment mid-record
	f.Add(fragments([]byte{}))                    // zero-length record
	f.Add(fragments([]byte("one rpc record")))    // single fragment
	f.Add(fragments(make([]byte, 100))[:4+100-1]) // truncated payload
	f.Add([]byte{0, 0, 0, 100})                   // fragment header, then nothing
	f.Add([]byte{0x80, 0})                        // truncated header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})         // hostile length field
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, stream []byte) {
		before := bufpool.Outstanding()
		rec, err := readRecord(bytes.NewReader(stream))
		want, ok := refRecord(stream)
		switch {
		case err != nil:
			if ok {
				t.Fatalf("readRecord failed on a well-formed record: %v", err)
			}
			if rec != nil {
				t.Fatalf("readRecord returned %d bytes with error %v", len(rec), err)
			}
			if errors.Is(err, io.EOF) != (len(stream) == 0) {
				t.Fatalf("clean EOF = %v on a %d-byte stream", err, len(stream))
			}
		case !ok:
			t.Fatalf("readRecord accepted a malformed stream as %d bytes", len(rec))
		case len(rec) > maxRecordSize:
			t.Fatalf("record of %d bytes exceeds maxRecordSize", len(rec))
		case !bytes.Equal(rec, want):
			t.Fatalf("reassembled %d bytes, want the %d fragment payload bytes", len(rec), len(want))
		}
		bufpool.Put(rec)
		if after := bufpool.Outstanding(); after != before {
			t.Fatalf("readRecord leaked %d pooled buffers", after-before)
		}
	})
}
