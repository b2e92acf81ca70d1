package profile

import (
	"fmt"
	"io"
	"time"

	"github.com/dydroid/dydroid/internal/stats"
)

// RenderIndex writes the profile index as an aligned table, the
// `apkinspect profile list` view.
func RenderIndex(w io.Writer, metas []Meta) {
	t := stats.NewTable("profile windows",
		"ID", "NODE", "TRIGGER", "DIGEST", "START", "DUR", "CPU")
	for _, m := range metas {
		digest := m.Digest
		if len(digest) > 12 {
			digest = digest[:12]
		}
		t.Row(m.ID, m.Node, m.Trigger, digest,
			m.StartAt.UTC().Format("15:04:05.000"),
			time.Duration(m.DurationNS).Round(time.Millisecond),
			time.Duration(m.CPUNS).Round(time.Microsecond))
	}
	fmt.Fprint(w, t.String())
}
