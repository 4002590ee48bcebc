package pdme

import "repro/internal/fusion"

// SetDiscounter installs a discounter on the diagnostic fuser for the
// package's external tests — the ones that attach a shard.Forwarder, which
// imports this package.
func (p *PDME) SetDiscounter(d fusion.Discounter) { p.diag.SetDiscounter(d) }
