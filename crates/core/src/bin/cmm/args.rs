//! `cmm`'s flag table, and the one parser and usage printer that read
//! it.
//!
//! [`MODES`] holds one usage line for each way of calling a
//! subcommand; [`FLAGS`] says what follows each flag those lines name.
//! After the subcommand, a mode line lists in order: its positionals
//! (`<file>`; `[proc]` may be left out; `<file.m3>` chooses the mode
//! by the file's extension), `[args..]` when 32-bit call words follow,
//! the flags that choose the mode (a bare `--replay`), and the flags
//! it reads (`[--out]`; of `[--sem|--decoded|--fused]` at most one may
//! be given). Every mode of a subcommand takes the same positionals,
//! and when several modes apply the last one listed is chosen.

use Kind::{Count, Number, Switch, Text};

/// What follows a flag.
#[derive(Clone, Copy)]
enum Kind {
    Switch,
    /// One word, described by the text.
    Text(&'static str),
    /// An unsigned 64-bit number.
    Number,
    /// An unsigned 64-bit number of at least 1.
    Count,
}

/// A flag: its spellings (messages name the first), what follows it,
/// and the placeholder usage shows for that value.
struct Flag(&'static [&'static str], Kind, &'static str);

/// Every flag a mode names, by its first spelling.
const FLAGS: &[Flag] = &[
    Flag(&["--results"], Number, "N"),
    Flag(&["-O0"], Switch, ""),
    Flag(&["--snapshot-every"], Count, "F"),
    Flag(&["--sem"], Switch, ""),
    Flag(&["--decoded"], Switch, ""),
    Flag(&["--fused"], Switch, ""),
    Flag(&["--out"], Text("a path"), "F"),
    Flag(&["--engine"], Text("a name"), "E"),
    Flag(&["--at"], Number, "K"),
    Flag(&["--fuel"], Count, "F"),
    Flag(&["--cases"], Number, "N"),
    Flag(&["--seed"], Number, "S"),
    Flag(&["--shrink"], Switch, ""),
    Flag(&["--corpus"], Text("a directory"), "DIR"),
    Flag(&["--jobs", "-j"], Count, "N"),
    Flag(&["--chaos"], Switch, ""),
    Flag(&["--fault-seed"], Number, "S"),
    Flag(&["--schedules"], Number, "K"),
    Flag(&["--snap"], Switch, ""),
    Flag(&["--snap-slice"], Count, "F"),
    Flag(&["--replay"], Text("a directory"), "DIR"),
    Flag(&["--no-timing"], Switch, ""),
    Flag(&["--cache-bytes"], Number, "B"),
    Flag(&["--metrics-out"], Text("a path"), "F"),
    Flag(&["--postmortem-dir"], Text("a directory"), "DIR"),
    Flag(&["--json"], Switch, ""),
    Flag(&["--listen"], Text("an address"), "ADDR"),
    Flag(&["--selftest"], Switch, ""),
    Flag(&["--quantum"], Count, "F"),
    Flag(&["--tenants"], Count, "N"),
    Flag(&["--threads"], Count, "N"),
    Flag(&["--quanta"], Number, "N"),
    Flag(&["--events-out"], Text("a path"), "F"),
];

/// One usage line per way of calling a subcommand, in the form the
/// module docs describe.
const MODES: &[&str] = &[
    "run <file> <proc> [args..] [--results] [-O0] [--snapshot-every]",
    "dump-cfg <file> [proc]",
    "dump-ssa <file> [proc]",
    "dump-vm <file>",
    "m3 <file> <strategy> [args..]",
    "trace <file> <proc> [args..] [--sem|--decoded|--fused] [-O0] [--results] [--out]",
    "trace <file.m3> <strategy> [args..] [--decoded|--fused] [-O0] [--out]",
    "trace <file.m3> <strategy> [args..] --sem [--out]",
    "profile <file> <proc> [args..] [--sem|--decoded|--fused] [-O0] [--results]",
    "profile <file.m3> <strategy> [args..] [--decoded|--fused] [-O0]",
    "profile <file.m3> <strategy> [args..] --sem",
    "snap <file> <proc> [args..] [--engine] [--at] [--fuel] [--results] [-O0] [--out]",
    "resume <snapshot> <file> [--engine] [--fuel]",
    "fuzz [--cases] [--seed] [--shrink] [--corpus] [--jobs] [--chaos] [--fault-seed] \
     [--schedules] [--snap] [--snap-slice]",
    "fuzz --replay",
    "batch <manifest> [--jobs] [--out] [--no-timing] [--cache-bytes] [--metrics-out] \
     [--postmortem-dir] [--snapshot-every]",
    "metrics <manifest> [--jobs] [--json] [--no-timing] [--cache-bytes]",
    "serve --listen [--jobs] [--quantum]",
    "serve --selftest [--tenants] [--threads] [--quanta] [--seed] [--jobs] [--quantum] \
     [--metrics-out] [--events-out]",
];

/// One word of a mode line after the subcommand.
enum Item {
    /// A positional, and whether it must be given.
    Pos(bool),
    Words,
    /// A flag that chooses the mode.
    Key(&'static str),
    /// Flags the mode reads, `|`-separated; at most one may be given.
    Flags(&'static str),
}

fn item(word: &'static str) -> Item {
    match word.strip_prefix('[').and_then(|w| w.strip_suffix(']')) {
        Some("args..") => Item::Words,
        Some(flags) if flags.starts_with('-') => Item::Flags(flags),
        Some(_) => Item::Pos(false),
        None if word.starts_with('-') => Item::Key(word),
        None => Item::Pos(true),
    }
}

fn mode_words(mode: &'static str) -> impl Iterator<Item = &'static str> {
    mode.split_whitespace().skip(1)
}

fn items(mode: &'static str) -> impl Iterator<Item = Item> {
    mode_words(mode).map(item)
}

fn command(mode: &'static str) -> &'static str {
    mode.split(' ').next().unwrap_or_default()
}

/// Every flag the mode reads, keys included, by its first spelling.
fn reads(mode: &'static str) -> impl Iterator<Item = &'static str> {
    items(mode)
        .filter_map(|i| match i {
            Item::Key(f) | Item::Flags(f) => Some(f),
            _ => None,
        })
        .flat_map(|f| f.split('|'))
}

/// The extension a mode's `<file.ext>` positional asks for.
fn extension(mode: &'static str) -> Option<&'static str> {
    let file = mode_words(mode).next()?.strip_suffix('>')?;
    file.find('.').map(|i| &file[i..])
}

fn flag(name: &str) -> &'static Flag {
    FLAGS
        .iter()
        .find(|f| f.0[0] == name)
        .expect("every flag a mode names is in FLAGS")
}

/// A command line that [`parse`] accepted: one mode of `cmd` applies,
/// every positional it requires is there, and every flag given is one
/// that mode reads.
pub struct Args {
    pub cmd: &'static str,
    /// The positionals, in order.
    pub pos: Vec<String>,
    /// The call words after them.
    pub words: Vec<u32>,
    /// Each flag given, by its first spelling, with the value [`parse`]
    /// checked against its [`Kind`] (empty for a switch).
    given: Vec<(&'static str, String)>,
}

impl Args {
    pub fn text(&self, flag: &str) -> Option<&str> {
        let given = self.given.iter().find(|(f, _)| *f == flag);
        given.map(|(_, v)| v.as_str())
    }

    pub fn on(&self, flag: &str) -> bool {
        self.text(flag).is_some()
    }

    pub fn num(&self, flag: &str) -> Option<u64> {
        self.text(flag)?.parse().ok()
    }

    /// [`Args::num`] as a size; a number past `usize::MAX` saturates.
    pub fn size(&self, flag: &str) -> Option<usize> {
        self.num(flag)
            .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
    }

    /// The call words, as the engines take them.
    pub fn words64(&self) -> Vec<u64> {
        self.words.iter().map(|&w| u64::from(w)).collect()
    }
}

/// Reads `cmm`'s arguments against the table: the subcommand, then its
/// positionals, call words and flags in any order.
pub fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut argv = argv.into_iter();
    let name = argv.next().ok_or_else(usage)?;
    let modes: Vec<&'static str> = MODES
        .iter()
        .copied()
        .filter(|m| command(m) == name)
        .collect();
    let first = *modes.first().ok_or_else(usage)?;
    let cmd = command(first);
    let positionals = items(first).filter(|i| matches!(i, Item::Pos(_))).count();
    let takes_words = items(first).any(|i| matches!(i, Item::Words));
    let mut a = Args {
        cmd,
        pos: Vec::new(),
        words: Vec::new(),
        given: Vec::new(),
    };
    while let Some(tok) = argv.next() {
        if !tok.starts_with('-') {
            if a.pos.len() < positionals {
                a.pos.push(tok);
            } else if takes_words {
                // Machine words are bits32: a wider value is refused
                // here, not truncated for one engine.
                a.words
                    .push(tok.parse().map_err(|_| format!("bad argument `{tok}`"))?);
            } else {
                return Err(format!("{cmd}: unexpected argument `{tok}`"));
            }
            continue;
        }
        let mut known = modes.iter().flat_map(|m| reads(m)).map(flag);
        let Some(&Flag(names, kind, _)) = known.find(|f| f.0.contains(&tok.as_str())) else {
            return Err(if cmd == "profile" && tok == "--out" {
                "profile writes no file; use `cmm trace --out` for a Chrome trace".into()
            } else {
                format!("unknown {cmd} option `{tok}`")
            });
        };
        let name = names[0];
        if a.on(name) {
            return Err(format!("{cmd}: {name} given twice"));
        }
        let number = |v: &String, least| v.parse::<u64>().is_ok_and(|n| n >= least);
        let value = match kind {
            Switch => Ok(String::new()),
            Text(what) => argv.next().ok_or(what),
            Number => argv.next().filter(|v| number(v, 0)).ok_or("a number"),
            Count => argv.next().filter(|v| number(v, 1)).ok_or("a number >= 1"),
        };
        let value = value.map_err(|needs| format!("{name} needs {needs}"))?;
        a.given.push((name, value));
    }
    let applies = |m: &&'static str| {
        items(m).all(|i| match i {
            Item::Key(k) => a.on(k),
            _ => true,
        }) && extension(m).is_none_or(|e| a.pos.first().is_some_and(|f| f.ends_with(e)))
    };
    let mode = modes.into_iter().rev().find(applies).ok_or_else(usage)?;
    if a.pos.len() < items(mode).filter(|i| matches!(i, Item::Pos(true))).count() {
        return Err(usage());
    }
    if let Some((f, _)) = a.given.iter().find(|(f, _)| !reads(mode).any(|r| r == *f)) {
        let keys = items(mode).filter_map(|i| match i {
            Item::Key(k) => Some(format!(" {k}")),
            _ => None,
        });
        let file = extension(mode).map(|e| format!(" on a {e} file"));
        let head: String = keys.chain(file).collect();
        return Err(format!("{cmd}{head} does not read `{f}`"));
    }
    for i in items(mode) {
        if let Item::Flags(alternatives) = i {
            let mut given = alternatives.split('|').filter(|f| a.on(f));
            if let (Some(x), Some(y)) = (given.next(), given.next()) {
                return Err(format!("{cmd}: {x} and {y} cannot be combined"));
            }
        }
    }
    Ok(a)
}

/// Every mode's line, each flag shown with its spellings and
/// placeholder, wrapped at 80 columns.
fn usage() -> String {
    let show = |name: &str| {
        let Flag(names, _, meta) = flag(name);
        format!("{} {meta}", names.join("|")).trim_end().to_string()
    };
    let mut lines = Vec::new();
    for mode in MODES {
        let mut text = format!("cmm {}", command(mode));
        let indent = "usage: ".len() + text.len();
        let mut column = indent;
        for word in mode_words(mode) {
            let shown = match item(word) {
                Item::Key(f) => show(f),
                Item::Flags(f) => {
                    format!("[{}]", f.split('|').map(show).collect::<Vec<_>>().join("|"))
                }
                Item::Pos(_) | Item::Words => word.to_string(),
            };
            if column + 1 + shown.len() > 80 {
                text += &format!("\n{:indent$}", "");
                column = indent;
            }
            text += " ";
            text += &shown;
            column += 1 + shown.len();
        }
        lines.push(text);
    }
    format!("usage: {}", lines.join("\n       "))
}
