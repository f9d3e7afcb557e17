package htmlx

import "testing"

// conformanceCases is a table of small parsing cases, each checked by the
// rendered canonical form of the body subtree — a compact way to pin the
// cleaner's behavior on the tag-soup patterns deep-web pages exhibit.
var conformanceCases = []struct {
	name string
	in   string
	want string // Render() of the parsed <html> root
}{
	{
		name: "simple",
		in:   `<html><body><p>x</p></body></html>`,
		want: `<html><body><p>x</p></body></html>`,
	},
	{
		name: "unclosed paragraphs",
		in:   `<body><p>one<p>two</body>`,
		want: `<html><body><p>one</p><p>two</p></body></html>`,
	},
	{
		name: "list items",
		in:   `<ul><li>a<li>b</ul>`,
		want: `<html><ul><li>a</li><li>b</li></ul></html>`,
	},
	{
		name: "definition list",
		in:   `<dl><dt>t<dd>d<dt>t2<dd>d2</dl>`,
		want: `<html><dl><dt>t</dt><dd>d</dd><dt>t2</dt><dd>d2</dd></dl></html>`,
	},
	{
		name: "table soup",
		in:   `<table><tr><td>a<td>b<tr><td>c</table>`,
		want: `<html><table><tr><td>a</td><td>b</td></tr><tr><td>c</td></tr></table></html>`,
	},
	{
		name: "thead tbody",
		in:   `<table><thead><tr><th>h</th></tr><tbody><tr><td>d</td></tr></table>`,
		want: `<html><table><thead><tr><th>h</th></tr></thead><tbody><tr><td>d</td></tr></tbody></table></html>`,
	},
	{
		name: "block closes paragraph",
		in:   `<p>before<div>inside</div>`,
		want: `<html><p>before</p><div>inside</div></html>`,
	},
	{
		name: "heading closes paragraph",
		in:   `<p>lead<h2>title</h2>`,
		want: `<html><p>lead</p><h2>title</h2></html>`,
	},
	{
		name: "select options",
		in:   `<select><option>a<option>b</select>`,
		want: `<html><select><option>a</option><option>b</option></select></html>`,
	},
	{
		name: "inline nesting preserved",
		in:   `<p><b><i>deep</i></b></p>`,
		want: `<html><p><b><i>deep</i></b></p></html>`,
	},
	{
		// hr is a block element: it implicitly closes the paragraph.
		name: "void elements",
		in:   `<p>a<br>b<hr>`,
		want: `<html><p>a<br>b</p><hr></html>`,
	},
	{
		name: "stray end tags dropped",
		in:   `</div><p>x</p></span>`,
		want: `<html><p>x</p></html>`,
	},
	{
		name: "comment and doctype stripped",
		in:   `<!DOCTYPE html><!-- hi --><p>x</p>`,
		want: `<html><p>x</p></html>`,
	},
	{
		name: "case folding",
		in:   `<P><B>X</B></P>`,
		want: `<html><p><b>X</b></p></html>`,
	},
	{
		name: "entity decoding with re-escaping",
		in:   `<p>a &amp; b</p>`,
		want: `<html><p>a &amp; b</p></html>`,
	},
	{
		name: "whitespace collapsing",
		in:   "<p>  a \n\t b  </p>",
		want: `<html><p>a b</p></html>`,
	},
	{
		name: "nested lists scoped",
		in:   `<ul><li>o<ul><li>i</ul><li>o2</ul>`,
		want: `<html><ul><li>o<ul><li>i</li></ul></li><li>o2</li></ul></html>`,
	},
	{
		name: "li closes through inline wrapper",
		in:   `<ul><li><b>bold<li>next</ul>`,
		want: `<html><ul><li><b>bold</b></li><li>next</li></ul></html>`,
	},
	{
		// The script element survives; only its body text is dropped.
		name: "script body dropped",
		in:   `<body><script>var a = "<p>no</p>";</script><p>yes</p></body>`,
		want: `<html><body><script></script><p>yes</p></body></html>`,
	},
	{
		name: "attributes preserved in order",
		in:   `<a href="/x" rel="nofollow">l</a>`,
		want: `<html><a href="/x" rel="nofollow">l</a></html>`,
	},
	{
		name: "unquoted attribute",
		in:   `<td width=100%>x</td>`,
		want: `<html><td width="100%">x</td></html>`,
	},
	{
		name: "self-closing non-void takes no children",
		in:   `<div><thing/>after</div>`,
		want: `<html><div><thing></thing>after</div></html>`,
	},
	{
		name: "form controls",
		in:   `<form><input type=text name=q><input type=submit></form>`,
		want: `<html><form><input type="text" name="q"><input type="submit"></form></html>`,
	},
	{
		name: "font tag",
		in:   `<font color=red size=2>x</font>`,
		want: `<html><font color="red" size="2">x</font></html>`,
	},
}

// TestParseConformance checks every conformance case's canonical form.
func TestParseConformance(t *testing.T) {
	for _, c := range conformanceCases {
		t.Run(c.name, func(t *testing.T) {
			got := Parse(c.in).Render()
			if got != c.want {
				t.Errorf("Parse(%q).Render()\n got  %q\n want %q", c.in, got, c.want)
			}
		})
	}
}

// TestParseConformanceStability: the canonical form is a fixpoint — the
// rendered output re-parses to itself for every conformance case input.
func TestParseConformanceStability(t *testing.T) {
	inputs := []string{
		`<ul><li>a<li>b</ul>`,
		`<table><tr><td>a<td>b</table>`,
		`<p>one<p>two<div>three</div>`,
		`<dl><dt>t<dd>d</dl>`,
	}
	for _, in := range inputs {
		once := Parse(in).Render()
		twice := Parse(once).Render()
		if once != twice {
			t.Errorf("not a fixpoint for %q:\n once  %q\n twice %q", in, once, twice)
		}
	}
}
