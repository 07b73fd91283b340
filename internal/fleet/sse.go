package fleet

import (
	"bufio"
	"bytes"
	"io"
)

// sseEvent is one parsed server-sent event from a worker stream: the
// event name and the raw data payload (single-line JSON, no trailing
// newline — exactly what the worker's data line carried).
type sseEvent struct {
	name string
	data []byte
}

// maxSSELine caps one line of a worker stream. A longer line is read
// past and its whole event dropped rather than failing the stream: in
// practice it is the checkpoint of a large genome at a large population
// (MBIST_55_20_5 at its default population streams 22.5 MB of base64),
// and losing it only means a migration resumes from an older checkpoint
// or restarts — the worker is healthy and its job runs on.
const maxSSELine = 16 << 20

var (
	sseEventPrefix = []byte("event: ")
	sseDataPrefix  = []byte("data: ")
)

// readSSE consumes a worker's event stream, invoking fn for each
// complete event; ev.data is only valid for the duration of the call.
// It returns nil when the stream ends (a worker dying mid-run shows up
// as a stream without a terminal event) and the transport error
// otherwise (an unexpected EOF or reset). fn returning an error stops
// the read and returns that error. Events with a line longer than
// maxSSELine are skipped.
func readSSE(r io.Reader, fn func(ev sseEvent) error) error {
	br := bufio.NewReaderSize(r, 64*1024)
	var name string
	var data, line []byte
	oversize := false // the current event has a line past maxSSELine
	for {
		line = line[:0]
		long := false
		var err error
		for {
			var frag []byte
			frag, err = br.ReadSlice('\n')
			if !long && len(line)+len(frag) > maxSSELine {
				long, line = true, line[:0]
			}
			if !long {
				line = append(line, frag...)
			}
			if err != bufio.ErrBufferFull {
				break
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if long {
			oversize = true
			continue
		}
		line = bytes.TrimSuffix(line[:len(line)-1], []byte("\r"))
		switch {
		case bytes.HasPrefix(line, sseEventPrefix):
			name = string(line[len(sseEventPrefix):])
		case bytes.HasPrefix(line, sseDataPrefix):
			data = append(data, line[len(sseDataPrefix):]...)
		case len(line) == 0:
			ev := sseEvent{name: name, data: data}
			skip := oversize || (name == "" && len(data) == 0)
			name, data, oversize = "", data[:0], false
			if skip {
				continue
			}
			if err := fn(ev); err != nil {
				return err
			}
		}
	}
}
