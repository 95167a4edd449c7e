package main

import (
	"testing"

	"xmlrdb/internal/paper"
	"xmlrdb/internal/xmltree"
)

func TestDOMPathCounts(t *testing.T) {
	docs := map[string]string{"book": paper.BookXML, "article": paper.ArticleXML, "editor": paper.EditorXML}
	cases := []struct {
		doc, path string
		want      int
	}{
		{"book", "/book/author", 2},
		{"book", "/book/booktitle/text()", 1},
		{"book", "/book/author[@id='a2']/name", 1},
		{"book", "/book/author[@id='zzz']", 0},
		{"book", "/article/author", 0},
		{"book", "/*", 1},
		{"book", "//author", 2},
		{"article", "//author", 3},
		{"article", "/article/author/name", 3},
		{"article", "/article/author/name/firstname/text()", 2},
		{"article", "/article/author[@id='wlee']/name", 1},
		{"article", "/article/contactauthor[@authorid]", 1},
		{"article", "/article/contactauthor[@missing]", 0},
		{"article", "/article/*", 7},
		{"article", "/article/author/@id", 3},
		{"editor", "//author", 2},
		{"editor", "/editor//book", 1},
		{"editor", "/editor//editor", 1},
		{"editor", "//editor", 2},
		{"editor", "/editor/book/author/name", 1},
		{"editor", "/editor/monograph/editor/@name", 1},
		{"editor", "/editor//name/lastname/text()", 2},
	}
	for _, c := range cases {
		p, err := parseDOMPath(c.path)
		if err != nil {
			t.Errorf("%s: %v", c.path, err)
			continue
		}
		if got := p.count(xmltree.MustParse(docs[c.doc]).Root); got != c.want {
			t.Errorf("%s on %s: got %d rows, want %d", c.path, c.doc, got, c.want)
		}
	}
}

func TestDOMPathRejects(t *testing.T) {
	for _, src := range []string{"", "book", "/book[text()='x']", "/a/text()/b", "/a//text()"} {
		if _, err := parseDOMPath(src); err == nil {
			t.Errorf("%q: parsed, want an error", src)
		}
	}
}
