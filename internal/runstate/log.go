package runstate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
	"sync"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errLogClosed is returned by appends to a closed Log.
var errLogClosed = errors.New("runstate: journal closed")

// frameBody encodes one record line: "<len> <crc32c-hex> <json>\n". The
// length and checksum cover the JSON bytes, so replay detects both torn
// tails (short final line) and bit rot (checksum mismatch mid-file).
func frameBody(body []byte) []byte {
	return []byte(fmt.Sprintf("%d %08x %s\n", len(body), crc32.Checksum(body, crcTable), body))
}

// parseFrame validates one framed line (without trailing newline) and
// returns its body bytes.
func parseFrame(line []byte) ([]byte, error) {
	s := string(line)
	sp1 := strings.IndexByte(s, ' ')
	if sp1 < 0 {
		return nil, errors.New("missing length field")
	}
	sp2 := strings.IndexByte(s[sp1+1:], ' ')
	if sp2 < 0 {
		return nil, errors.New("missing checksum field")
	}
	sp2 += sp1 + 1
	n, err := strconv.Atoi(s[:sp1])
	if err != nil {
		return nil, fmt.Errorf("bad length: %w", err)
	}
	wantCRC, err := strconv.ParseUint(s[sp1+1:sp2], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("bad checksum: %w", err)
	}
	body := line[sp2+1:]
	if len(body) != n {
		return nil, fmt.Errorf("length %d, frame says %d", len(body), n)
	}
	if got := crc32.Checksum(body, crcTable); uint32(wantCRC) != got {
		return nil, fmt.Errorf("checksum %08x, frame says %08x", got, wantCRC)
	}
	return body, nil
}

// replayFrames is the one frame validator: it walks data's framed lines
// and returns the committed record bodies (copied out of data) with the
// byte length of the committed prefix. A frame error on the *final* line —
// the only damage an append-only crash can inflict — is tolerated and
// reported via torn: each record commits as one write+fsync including its
// newline, so a damaged or unterminated final record never committed.
// Damage anywhere earlier is corruption and returns an error. Only the
// framing decides what committed; a body's schema is its owner's business,
// so the same prefix survives whoever wrote the log.
func replayFrames(data []byte) (bodies [][]byte, committed int, torn bool, err error) {
	for committed < len(data) {
		nl := bytes.IndexByte(data[committed:], '\n')
		if nl < 0 {
			return bodies, committed, true, nil
		}
		nl += committed
		body, perr := parseFrame(data[committed:nl])
		if perr != nil {
			if nl == len(data)-1 {
				return bodies, committed, true, nil
			}
			return nil, 0, false, fmt.Errorf("runstate: journal corrupt at byte %d: %v", committed, perr)
		}
		bodies = append(bodies, append([]byte(nil), body...))
		committed = nl + 1
	}
	return bodies, committed, false, nil
}

// Log is the crash-safe append-only record log: len+crc32c framing, one
// write and one fsync per record, torn-tail tolerance on open. It is the
// only log writer in the repository — the run Journal is a typed view over
// one, and the experiment service daemon journals its job lifecycle
// through another. A kill -9 loses at most the record being written,
// which replay then drops as a torn tail.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
}

// ReplayRaw parses a framed byte stream into its committed record bodies.
// A torn *final* line is tolerated and reported via torn; damage anywhere
// earlier is corruption and returns an error. Bodies are returned
// verbatim; the caller owns their schema.
func ReplayRaw(data []byte) (bodies [][]byte, torn bool, err error) {
	bodies, _, torn, err = replayFrames(data)
	return bodies, torn, err
}

// OpenLog opens (creating if absent) the framed log at path and replays
// its committed records. A torn tail is truncated so the returned Log
// appends on a clean record boundary. The returned bodies are the
// committed records in append order; torn reports whether a tail was
// dropped.
func OpenLog(path string) (*Log, [][]byte, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, false, err
	}
	bodies, committed, torn, err := replayFrames(data)
	if err != nil {
		return nil, nil, false, err
	}
	if torn {
		if terr := os.Truncate(path, int64(committed)); terr != nil {
			return nil, nil, false, terr
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, nil, false, err
	}
	return &Log{f: f}, bodies, torn, nil
}

// Append frames v's JSON encoding and durably commits it (one write, one
// fsync). Safe for concurrent use.
func (l *Log) Append(v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line := frameBody(body)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if _, err := l.f.Write(line); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the log file. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
