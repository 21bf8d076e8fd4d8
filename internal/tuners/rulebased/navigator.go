package rulebased

// Navigator reproduces the configuration-navigation idea of Xu et al.
// ("Hey, you have given me too many knobs!"): most parameters should never
// be touched; rank them by declared impact, expose only the top few, and
// walk those one at a time over a handful of candidate values, keeping each
// parameter's best value before moving on. It is still rule-based — the
// ranking comes from documentation, not measurement — but unlike a pure
// rulebook it spends a small trial budget confirming choices.
type Navigator struct{}

const (
	// navTopK is how many parameters the navigator walks.
	navTopK = 5
	// navLevels is how many candidate values it tries per parameter.
	navLevels = 4
)

// NewNavigator returns a Navigator.
func NewNavigator() *Navigator { return &Navigator{} }

// Name implements tune.Tuner.
func (n *Navigator) Name() string { return "rules/navigator" }
