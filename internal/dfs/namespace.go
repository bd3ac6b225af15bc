package dfs

import (
	"slices"
	"strings"
)

// namespace is the namenode's file table: a tree of directories split at
// "/", as HDFS's namenode keeps it. A path's last component names a file
// in the directory its other components lead to, so "/a/b" is the file
// "b" in the directory "a" of the root's directory "" — and a name can be
// a file and a directory at once ("/a" beside "/a/b"). Empty components
// ("a//b") and a trailing "/" are names like any other. A removal prunes
// the directories it leaves empty, so the tree holds nothing but the
// live files and the directories leading to them.
//
// Every lookup costs the depth of the path, and list costs the entries
// of the one directory the prefix ends in plus what it returns —
// however many files live elsewhere. Each directory also carries the
// bytes of every file beneath it, kept by put and remove along the path,
// so a directory's size is one lookup. Callers hold fs.mu.
type namespace struct {
	root dirNode
}

type dirNode struct {
	dirs  map[string]*dirNode
	files map[string]*file
	bytes int64 // the bytes of every file in this directory's subtree
}

// parent returns the directory that holds path's last component, and
// that component; the directory is nil when one on the way is missing.
func (ns *namespace) parent(path string) (*dirNode, string) {
	d := &ns.root
	for {
		i := strings.IndexByte(path, '/')
		if i < 0 {
			return d, path
		}
		if d = d.dirs[path[:i]]; d == nil {
			return nil, ""
		}
		path = path[i+1:]
	}
}

// get returns the file at path.
func (ns *namespace) get(path string) (*file, bool) {
	d, name := ns.parent(path)
	if d == nil {
		return nil, false
	}
	f, ok := d.files[name]
	return f, ok
}

// put stores f at path, creating the directories on the way and
// replacing any file already there.
func (ns *namespace) put(path string, f *file) {
	ns.root.put(path, f)
}

// put stores f at path below d and returns the change in the bytes d's
// subtree holds: f's, less those of a file it replaces.
func (d *dirNode) put(path string, f *file) int64 {
	var delta int64
	if i := strings.IndexByte(path, '/'); i >= 0 {
		sub := d.dirs[path[:i]]
		if sub == nil {
			if d.dirs == nil {
				d.dirs = make(map[string]*dirNode)
			}
			sub = &dirNode{}
			// A directory outlives the file that made it: keep only its
			// name, not that file's whole path.
			d.dirs[strings.Clone(path[:i])] = sub
		}
		delta = sub.put(path[i+1:], f)
	} else {
		if d.files == nil {
			d.files = make(map[string]*file)
		}
		delta = f.bytes
		if old, ok := d.files[path]; ok {
			delta -= old.bytes
		}
		d.files[path] = f
	}
	d.bytes += delta
	return delta
}

// remove deletes the file at path and returns it, pruning every
// directory the removal leaves empty.
func (ns *namespace) remove(path string) (*file, bool) {
	return ns.root.remove(path)
}

func (d *dirNode) remove(path string) (*file, bool) {
	var f *file
	var ok bool
	if i := strings.IndexByte(path, '/'); i < 0 {
		f, ok = d.files[path]
		delete(d.files, path)
	} else {
		sub := d.dirs[path[:i]]
		if sub == nil {
			return nil, false
		}
		f, ok = sub.remove(path[i+1:])
		if len(sub.dirs) == 0 && len(sub.files) == 0 {
			delete(d.dirs, path[:i])
		}
	}
	if ok {
		d.bytes -= f.bytes
	}
	return f, ok
}

// dirBytes returns the bytes of every file whose path starts with dir+"/":
// the subtree of the directory dir names, 0 when there is none.
func (ns *namespace) dirBytes(dir string) int64 {
	d, _ := ns.parent(dir + "/")
	if d == nil {
		return 0
	}
	return d.bytes
}

// list returns the paths that start with prefix, sorted. The prefix's
// directory part is walked component by component; its last, possibly
// partial, component selects entries of that one directory by name
// prefix, and a selected directory contributes its whole subtree.
func (ns *namespace) list(prefix string) []string {
	d, partial := ns.parent(prefix)
	if d == nil {
		return nil
	}
	base := prefix[:len(prefix)-len(partial)]
	var out []string
	for name := range d.files {
		if strings.HasPrefix(name, partial) {
			out = append(out, base+name)
		}
	}
	for name, sub := range d.dirs {
		if strings.HasPrefix(name, partial) {
			out = sub.collect(base+name, out)
		}
	}
	slices.Sort(out)
	return out
}

// collect appends the path of every file under d, which sits at path.
func (d *dirNode) collect(path string, out []string) []string {
	for name := range d.files {
		out = append(out, path+"/"+name)
	}
	for name, sub := range d.dirs {
		out = sub.collect(path+"/"+name, out)
	}
	return out
}

// each calls fn on every file, in no particular order.
func (ns *namespace) each(fn func(*file)) {
	ns.root.each(fn)
}

func (d *dirNode) each(fn func(*file)) {
	for _, f := range d.files {
		fn(f)
	}
	for _, sub := range d.dirs {
		sub.each(fn)
	}
}
