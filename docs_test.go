package sbft

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Reference-style
// links and autolinks are out of scope; the repo's docs use inline links.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// repoFiles lists the files git tracks in the repository that keep
// accepts, so an untracked scratch or per-change file cannot fail a docs
// test.
func repoFiles(t *testing.T, keep func(path string) bool) []string {
	t.Helper()
	out, err := exec.Command("git", "ls-files", "-z").Output()
	if err != nil {
		t.Fatalf("listing the tracked files: %v", err)
	}
	var files []string
	for _, path := range strings.Split(string(out), "\x00") {
		if path != "" && keep(path) {
			files = append(files, filepath.FromSlash(path))
		}
	}
	return files
}

// TestDocLinks is the docs gate's link checker: every relative link in
// every tracked *.md file must resolve to an existing file or directory.
// External links (http/https/mailto) are not fetched — CI must not
// depend on the network — but their scheme must be well-formed.
func TestDocLinks(t *testing.T) {
	mdFiles := repoFiles(t, func(path string) bool {
		return strings.HasSuffix(strings.ToLower(path), ".md")
	})
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found — checker is miswired")
	}

	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor
			}
			// Relative link: strip any anchor and resolve against the
			// file's directory.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s): %v", md, m[1], resolved, err)
			}
		}
	}
}

// designRef matches DESIGN.md followed by one quoted section name, or by
// several joined with commas, "and" or "or": DESIGN.md "Live runtime",
// DESIGN.md "Stages" and "Live runtime".
var designRef = regexp.MustCompile(`DESIGN\.md\s+("[^"\n]+"(?:\s*(?:,|,?\s*and|,?\s*or)\s*"[^"\n]+")*)`)

var quoted = regexp.MustCompile(`"([^"\n]+)"`)

// commentWrap joins a line to the next across the comment marker that
// opens it, so a name wrapped over two comment lines reads as one.
var commentWrap = map[string]*regexp.Regexp{
	".go":  regexp.MustCompile(`\s*\n\s*(//\s*)?`),
	".yml": regexp.MustCompile(`\s*\n\s*(#\s*)?`),
	".sh":  regexp.MustCompile(`\s*\n\s*(#\s*)?`),
	".md":  regexp.MustCompile(`\s*\n\s*`),
}

// designRefs returns every section name text quotes after DESIGN.md, ext
// being the extension of the file it came from.
func designRefs(text, ext string) []string {
	text = commentWrap[ext].ReplaceAllString(text, " ")
	var names []string
	for _, m := range designRef.FindAllStringSubmatch(text, -1) {
		for _, q := range quoted.FindAllStringSubmatch(m[1], -1) {
			names = append(names, strings.TrimRight(q[1], "….,"))
		}
	}
	return names
}

// TestDesignReferences checks what TestDocLinks cannot: every section
// name quoted after DESIGN.md in a .go, .md, .yml or .sh file is the start
// of one of DESIGN.md's headings. CHANGES.md is a historical record and
// keeps the names sections had when it was written.
func TestDesignReferences(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(design), "\n") {
		if h := strings.TrimLeft(line, "#"); h != line && strings.HasPrefix(h, " ") {
			headings = append(headings, strings.TrimSpace(h))
		}
	}
	resolves := func(name string) bool {
		for _, h := range headings {
			if strings.HasPrefix(h, name) {
				return true
			}
		}
		return false
	}
	if got := designRefs("x // DESIGN.md \"Live\n\t// runtime\" and \"Stages\"", ".go"); strings.Join(got, "|") != "Live runtime|Stages" {
		t.Fatalf("a reference wrapped across comment lines reads %q — extractor is miswired", got)
	}

	found := 0
	for _, path := range repoFiles(t, func(path string) bool {
		return commentWrap[filepath.Ext(path)] != nil && path != "CHANGES.md"
	}) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range designRefs(string(data), filepath.Ext(path)) {
			found++
			if !resolves(name) {
				t.Errorf("%s: DESIGN.md %q names no section of DESIGN.md", path, name)
			}
		}
	}
	if found == 0 {
		t.Fatal("no DESIGN.md section references found — checker is miswired")
	}
}
