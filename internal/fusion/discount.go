package fusion

// DiscountSummary applies Shafer discounting with factor alpha to a fused
// (belief, plausibility, unknown) triple arriving as a shard summary, for
// aggregators that hold only the shard's read-side numbers rather than its
// underlying mass functions. Discounting a mass m to αm + (1-α)·Θ maps the
// derived intervals linearly:
//
//	Bel' = α·Bel        Pl' = 1 - α·(1-Pl)        Θ' = 1 - α + α·Θ
//
// which matches dempster.DiscountInto applied before the interval is read out.
// alpha is clamped to [0,1]; alpha 1 is the identity, alpha 0 collapses the
// summary to total ignorance (Bel 0, Pl 1, Θ 1) — exactly how a lost
// shard's contribution degrades monotonically toward Unknown.
func DiscountSummary(belief, plausibility, unknown, alpha float64) (b, pl, u float64) {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	return alpha * belief, 1 - alpha*(1-plausibility), 1 - alpha + alpha*unknown
}
