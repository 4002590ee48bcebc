package pdme

import (
	"encoding/json"

	"repro/internal/fusion"
)

// SetDiscounter installs a discounter on the diagnostic fuser for the
// package's external tests — the ones that attach a shard.Forwarder, which
// imports this package.
func (p *PDME) SetDiscounter(d fusion.Discounter) { p.diag.SetDiscounter(d) }

// RemarshalCheckpoint decodes a checkpoint body as recovery does and marshals
// what it read, for the journal fixture tests: a field whose JSON name the
// writer and the decoder disagree on does not come back.
func RemarshalCheckpoint(blob []byte) ([]byte, error) {
	var st checkpointState
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, err
	}
	return json.Marshal(st)
}
