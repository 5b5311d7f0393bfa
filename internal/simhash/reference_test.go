package simhash

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"whowas/internal/websim"
)

// tokenize is the reference definition of a "word": a maximal run of
// Unicode letters and digits, lowercased. Hash streams over the same
// runs without materialising them.
func tokenize(text string) []string {
	var tokens []string
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			tokens = append(tokens, sb.String())
			sb.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			sb.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Add accumulates one feature with the given positive weight, as that
// many features of weight 1.
func (h *hasher) Add(token string, weight int) {
	if token == "" {
		return
	}
	for ; weight > 0; weight-- {
		h.add(featureHash(token))
	}
}

// Features reports how many features of weight 1 have been added.
func (h *hasher) Features() int { return h.n }

// referenceHash is the tokenizing simhash Hash must equal bit for bit:
// every token, then every adjacent pair joined by a space, each one
// feature of weight 1.
func referenceHash(text string) Fingerprint {
	var h hasher
	tokens := tokenize(text)
	for _, t := range tokens {
		h.Add(t, 1)
	}
	for i := 0; i+1 < len(tokens); i++ {
		h.Add(tokens[i]+" "+tokens[i+1], 1)
	}
	return h.Fingerprint()
}

func TestHashMatchesReferenceOnEdgeCases(t *testing.T) {
	for _, text := range []string{
		"", " ", "a", "A", "a b", "AB cd", "  lead and trail  ", "x\x80y", "\xff\xfe",
		"Ünïcödé ÀÉÎ straße İstanbul ǅ", "日本語テキスト with mixed scripts 123",
		"٣٤٥ digits ①②③ ½", "a­b", "emoji 🙂 split", "tab\tnew\nline\r\n",
		"� literal replacement", "ΣΑΣ σας", "KK kelvin",
	} {
		if got, want := Hash(text), referenceHash(text); got != want {
			t.Errorf("Hash(%q) = %v, reference %v", text, got, want)
		}
	}
}

func TestHashMatchesReferenceOnRandomText(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	alphabet := []rune("aZ09 .,<>/\"'\t\nßÀéΣσİı日本ǅ½①🙂�K")
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for j := rng.Intn(64); j > 0; j-- {
			if rng.Intn(16) == 0 {
				sb.WriteByte(byte(0x80 + rng.Intn(0x80))) // invalid UTF-8
				continue
			}
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		text := sb.String()
		if got, want := Hash(text), referenceHash(text); got != want {
			t.Fatalf("Hash(%q) = %v, reference %v", text, got, want)
		}
	}
}

// TestHashMatchesReferenceOnWebsimPages runs the differential over the
// pages the campaigns fingerprint: every category on both clouds, at
// several revisions and response statuses.
func TestHashMatchesReferenceOnWebsimPages(t *testing.T) {
	categories := []websim.Category{
		websim.CategoryPaaS, websim.CategoryCloudHosting, websim.CategoryVPN,
		websim.CategorySaaS, websim.CategoryGame, websim.CategoryShopping,
		websim.CategoryVideo, websim.CategoryMarketing, websim.CategoryBlog,
		websim.CategoryCorporate, websim.CategoryDev,
	}
	pages := 0
	for _, cloud := range []websim.CloudKind{websim.EC2Like, websim.AzureLike} {
		for ci, cat := range categories {
			for id := uint64(0); id < 12; id++ {
				rng := rand.New(rand.NewSource(int64(ci)*1000 + int64(id)))
				p := websim.GenProfile(rng, id, cloud, cat)
				if id%4 == 3 {
					websim.MarkMalicious(rng, &p, websim.MaliciousKind(1+id%2), 3)
				}
				for rev := 0; rev < 4; rev++ {
					for _, body := range []string{p.RenderPage(rev), p.RobotsTxt()} {
						pages++
						if got, want := Hash(body), referenceHash(body); got != want {
							t.Fatalf("%s/%s profile %d rev %d: Hash = %v, reference %v", cloud, cat, id, rev, got, want)
						}
					}
				}
			}
		}
	}
	if pages < 1000 {
		t.Fatalf("compared %d pages, want at least 1000", pages)
	}
}

func TestHashAllocatesNothing(t *testing.T) {
	doc := strings.Repeat("Typical landing PAGE markup with navigation — and footer text ", 70)
	if n := testing.AllocsPerRun(20, func() { Hash(doc) }); n != 0 {
		t.Errorf("Hash allocates %v times per page, want 0", n)
	}
}
