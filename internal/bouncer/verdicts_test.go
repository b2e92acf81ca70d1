package bouncer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/dydroid/dydroid/internal/corpus"
)

// reviewVerdictsDigest is the SHA-256 of every verdict (package,
// approval, reason, error) over the seed-7, scale-0.01 marketplace,
// reviewed with the store's own classifier and network. It pins the
// review's outcome so an optimisation of how the review provisions its
// sandbox cannot change what it decides.
const reviewVerdictsDigest = "4b3d4711971c20c0b53e386b50ba493bbe67e322d37ffde258a506b84b429592"

func TestReviewVerdictsUnchanged(t *testing.T) {
	st, err := corpus.Generate(corpus.Config{Seed: 7, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := st.TrainingSet(3)
	if err != nil {
		t.Fatal(err)
	}
	r := &Reviewer{Classifier: clf, Network: st.Network}
	h := sha256.New()
	approved, rejected := 0, 0
	for _, app := range st.Apps {
		data, err := st.BuildAPK(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Meta.Package, err)
		}
		v, err := r.Review(data)
		fmt.Fprintf(h, "%s\t%t\t%s\t%v\n", app.Meta.Package, v.Approved, v.Reason, err)
		switch {
		case err != nil:
		case v.Approved:
			approved++
		default:
			rejected++
		}
	}
	if approved == 0 || rejected == 0 {
		t.Fatalf("slice exercises one outcome only: %d approved, %d rejected", approved, rejected)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != reviewVerdictsDigest {
		t.Fatalf("verdict digest over %d apps (%d approved, %d rejected) = %s, want %s",
			len(st.Apps), approved, rejected, got, reviewVerdictsDigest)
	}
}
