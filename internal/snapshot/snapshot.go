// Package snapshot persists the engine's Pareto-front solution caches
// to disk and restores them on boot, so a restarted (or newly added)
// replica answers previously-solved shapes without re-running a single
// dynamic program.
//
// The format is versioned and self-verifying:
//
//	magic "RIPSNAP\n"
//	u32   schema version (currently 3)
//	u32   node-section count
//	per section:
//	  u32 + bytes   canonical node name
//	  [32]byte      SHA-256 of the node's electrical identity string
//	  u32           entry count
//	  per entry:    u32 payload length + payload (see entry.go)
//	[32]byte        SHA-256 of everything above
//
// All integers are little-endian. The trailing checksum catches
// truncation and bit rot; the per-section identity digest pins every
// entry to the exact node parameters it was solved under, so a
// snapshot taken before a node definition changed is skipped for that
// node (a counted event, not an error) instead of being trusted.
//
// Restores are belt and braces: even an entry that passes every check
// here is still re-verified by the engine on the actual net before it
// is ever served (the cache's standing rule), so a corrupt or stale
// snapshot can only cost misses, never wrong answers.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"

	"github.com/rip-eda/rip/internal/engine"
)

var magic = [8]byte{'R', 'I', 'P', 'S', 'N', 'A', 'P', '\n'}

// Version is the schema version this package writes. v2 added the
// per-point crosstalk countermeasure fields (schemes, stagger/shield
// lengths) to line entries; v1 files are refused with ErrVersion rather
// than imported without them — the identity digests would not match
// anyway, since coupling parameters joined the node identity string in
// the same change. v3 entries carry the engine's binary cache keys; a v2
// file's text keys would import and never hit, so it is refused with
// ErrVersion too. v4 keys a line entry's crosstalk scenario by its
// resolved physics (allowed schemes and factor classes) instead of its
// scenario names, which changes the tail of every line key, so v3 files
// are refused the same way.
const Version = 4

// ErrFormat flags a file that is not a well-formed snapshot: wrong
// magic, truncated, internally inconsistent, or failing its checksum.
var ErrFormat = errors.New("snapshot: invalid format")

// ErrVersion flags a well-formed snapshot written by an incompatible
// schema version.
var ErrVersion = errors.New("snapshot: unsupported version")

// digestLen is the byte length of the SHA-256 digests in the format.
const digestLen = sha256.Size

// Node is one technology node's section: its canonical name, its raw
// electrical identity string (hashed on write, matched on load), and
// its cache entries in LRU→MRU order.
type Node struct {
	Name     string
	Identity string
	Entries  []engine.CacheEntry
}

// Stats summarizes one save or load.
type Stats struct {
	// Nodes is the number of node sections written or accepted.
	Nodes int
	// SkippedNodes counts load-side sections dropped whole: the node is
	// not served here, or its identity digest does not match.
	SkippedNodes int
	// Entries is the number of cache entries written or imported.
	Entries int
	// SkippedEntries counts load-side entries the engine's import
	// rejected as structurally unsound.
	SkippedEntries int
}

// Write streams the node sections to w in the versioned format.
func Write(w io.Writer, nodes []Node) (Stats, error) {
	h := sha256.New()
	tw := &teeWriter{w: w, h: h}
	var st Stats
	if _, err := tw.Write(magic[:]); err != nil {
		return st, err
	}
	if err := writeU32(tw, Version); err != nil {
		return st, err
	}
	if err := writeU32(tw, uint32(len(nodes))); err != nil {
		return st, err
	}
	for _, n := range nodes {
		if err := writeBytes(tw, []byte(n.Name)); err != nil {
			return st, err
		}
		digest := sha256.Sum256([]byte(n.Identity))
		if _, err := tw.Write(digest[:]); err != nil {
			return st, err
		}
		if err := writeU32(tw, uint32(len(n.Entries))); err != nil {
			return st, err
		}
		for i := range n.Entries {
			if err := writeEntry(tw, &n.Entries[i]); err != nil {
				return st, err
			}
		}
		st.Nodes++
		st.Entries += len(n.Entries)
	}
	// The trailer is written to w alone: it must not hash itself.
	if _, err := w.Write(h.Sum(nil)); err != nil {
		return st, err
	}
	return st, nil
}

// Read parses a whole snapshot image, verifying magic, version and the
// trailing checksum before trusting any section. The returned nodes
// carry digests, not identities (the identity string itself is never
// stored); match them with DigestOf.
func Read(data []byte) ([]readNode, error) {
	trailer := len(data) - digestLen
	if trailer < len(magic)+8 {
		return nil, fmt.Errorf("%w: file too short (%d bytes)", ErrFormat, len(data))
	}
	sum := sha256.Sum256(data[:trailer])
	if [digestLen]byte(data[trailer:]) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrFormat)
	}
	c := &cursor{b: data[:trailer]}
	var m [8]byte
	c.read(m[:])
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := c.u32(); v != Version {
		return nil, fmt.Errorf("%w %d (this build reads v%d)", ErrVersion, v, Version)
	}
	count := int(c.u32())
	nodes := make([]readNode, 0, min(count, 64))
	for i := 0; i < count; i++ {
		var n readNode
		n.Name = string(c.bytes())
		c.read(n.Digest[:])
		entries := int(c.u32())
		for k := 0; k < entries; k++ {
			ent, ok := readEntry(c)
			if !ok {
				break
			}
			n.Entries = append(n.Entries, ent)
		}
		if c.failed {
			return nil, fmt.Errorf("%w: truncated or inconsistent section %q", ErrFormat, n.Name)
		}
		nodes = append(nodes, n)
	}
	if c.failed {
		return nil, fmt.Errorf("%w: truncated", ErrFormat)
	}
	if c.off != len(c.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(c.b)-c.off)
	}
	return nodes, nil
}

// readNode is one parsed node section.
type readNode struct {
	Name    string
	Digest  [digestLen]byte
	Entries []engine.CacheEntry
}

// DigestOf returns the identity digest a section written for this
// identity string would carry.
func DigestOf(identity string) [digestLen]byte {
	return sha256.Sum256([]byte(identity))
}

// Save writes the sections to path atomically: a temp file in the same
// directory, synced, then renamed over path, so a crash mid-save
// leaves the previous snapshot intact and readers never observe a
// half-written file.
func Save(path string, nodes []Node) (Stats, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return Stats{}, err
	}
	tmp := f.Name()
	st, err := Write(f, nodes)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return st, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return st, err
	}
	return st, nil
}

// SaveMulti snapshots every node engine's cache under its canonical
// registry name.
func SaveMulti(path string, m *engine.Multi) (Stats, error) {
	var nodes []Node
	for _, name := range m.Names() {
		e, ok := m.Engine(name)
		if !ok {
			continue
		}
		nodes = append(nodes, Node{
			Name:     name,
			Identity: e.TechIdentity(),
			Entries:  e.ExportCache(),
		})
	}
	return Save(path, nodes)
}

// LoadMulti restores a snapshot into the Multi's node caches. Sections
// for nodes this Multi does not serve, or whose identity digest does
// not match the node's current electrical identity, are skipped and
// counted — never imported. Format violations (bad magic, truncation,
// checksum or version mismatch) fail the whole load with ErrFormat /
// ErrVersion and import nothing.
func LoadMulti(path string, m *engine.Multi) (Stats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Stats{}, err
	}
	nodes, err := Read(data)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	for _, n := range nodes {
		e, ok := m.Engine(n.Name)
		if !ok || DigestOf(e.TechIdentity()) != n.Digest {
			st.SkippedNodes++
			continue
		}
		added := e.ImportCache(n.Entries)
		st.Nodes++
		st.Entries += added
		st.SkippedEntries += len(n.Entries) - added
	}
	return st, nil
}

// teeWriter hashes everything it forwards.
type teeWriter struct {
	w io.Writer
	h hash.Hash
}

func (t *teeWriter) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	t.h.Write(p[:n])
	return n, err
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeBytes(w io.Writer, p []byte) error {
	if err := writeU32(w, uint32(len(p))); err != nil {
		return err
	}
	_, err := w.Write(p)
	return err
}

// cursor is a failure-latching little-endian reader over the checked
// image; any out-of-bounds read sets failed and every later read
// returns zeros, so parse loops need a single failure check.
type cursor struct {
	b      []byte
	off    int
	failed bool
}

func (c *cursor) read(dst []byte) {
	if c.failed || c.off+len(dst) > len(c.b) {
		c.failed = true
		return
	}
	copy(dst, c.b[c.off:])
	c.off += len(dst)
}

func (c *cursor) u32() uint32 {
	if c.failed || c.off+4 > len(c.b) {
		c.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) f64() float64 {
	if c.failed || c.off+8 > len(c.b) {
		c.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return fromBits(v)
}

func (c *cursor) bytes() []byte {
	n := int(c.u32())
	if c.failed || c.off+n > len(c.b) || n < 0 {
		c.failed = true
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}
