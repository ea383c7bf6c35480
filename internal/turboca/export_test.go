package turboca

// WithFullRescore returns cfg with the incremental contribution cache
// disabled: every NBO round is scored by a full logNetP re-sum. The
// external property tests use it to check that both scoring paths agree
// bit for bit.
func WithFullRescore(cfg Config) Config {
	cfg.fullRescore = true
	return cfg
}
