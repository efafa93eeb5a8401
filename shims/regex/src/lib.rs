//! Offline stand-in for the `regex` crate: patterns compile to a
//! bit-parallel automaton.
//!
//! Supports the subset used by RPA path signatures: literals, `.`, `^`, `$`,
//! alternation `|`, groups `(...)`, classes `[a-z0-9]` (with `^` negation),
//! quantifiers `*` `+` `?` `{m}` `{m,}` `{m,n}`, and common escapes
//! (`\d \w \s \D \W \S` plus escaped metacharacters).
//!
//! **Compiling.** `Regex::new` parses the pattern and compiles it into a
//! Thompson program (consume, split, jump, assertion and match
//! instructions). Counted repeats are expanded, so the program is capped at
//! [`MAX_INSTS`] instructions. From the program it precomputes two tables
//! over the consuming instructions (the *states*): the ASCII bytes each
//! state accepts, as a `u128` mask, and the ε-closure it leads to once it
//! has consumed, mid-text and at the text's end. The search's own entry
//! closure is kept under each of the four (at-start, at-end) contexts.
//!
//! **Matching.** `is_match` is one unanchored left-to-right pass over the
//! text that keeps every live state at once, one bit each: a set is a
//! `u128` when the program has at most 128 instructions, a heap bit set
//! above that. A step unions the follow closures of the live states that
//! accept the next byte. It never recurses on the text, costs
//! O(text × states) whatever the pattern, and allocates nothing on a
//! `u128` program. Non-ASCII text steps one `char` at a time over the same
//! tables.
//!
//! **Semantics** are the `regex` crate's for `is_match` on this subset: the
//! pattern matches if any substring of the text is in its language, so a
//! nullable group under a quantifier (`(6?)*5`) is an ordinary pattern.
//! One difference from the crate: `.` also matches `\n`.
//!
//! **Errors.** Malformed patterns (unbalanced groups or classes, dangling
//! quantifiers), a repetition range `{m,n}` with `n < m` (the real crate's
//! "invalid repetition range"), a program over [`MAX_INSTS`] instructions
//! (its `CompiledTooBig`) and groups nested deeper than [`MAX_NEST`] (its
//! nest limit) fail `Regex::new`.

use std::borrow::Cow;

/// Pattern compilation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regex parse error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// The largest compiled program, in instructions. It bounds compile time
/// and the closure tables (O(states²) bits) that a counted repeat such as
/// `6{4294967295}` would otherwise blow up.
pub const MAX_INSTS: usize = 2048;

/// The deepest group nesting the parser accepts; it bounds the parser's
/// and the compiler's recursion.
pub const MAX_NEST: usize = 250;

#[derive(Debug, Clone)]
enum Node {
    Char(char),
    Any,
    Class {
        negated: bool,
        /// The escapes' ranges are static; a bracket class owns its own.
        ranges: Cow<'static, [(char, char)]>,
    },
    Start,
    End,
    Concat(Vec<Node>),
    Alt(Vec<Node>),
    Repeat {
        node: Box<Node>,
        min: u32,
        max: Option<u32>,
    },
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    automaton: Automaton,
}

impl Regex {
    pub fn new(pattern: &str) -> Result<Regex, Error> {
        let ast = parse(pattern)?;
        Ok(Regex {
            pattern: pattern.to_string(),
            automaton: Automaton::compile(&ast)?,
        })
    }

    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// Whether the pattern matches anywhere in `text` (unanchored search).
    pub fn is_match(&self, text: &str) -> bool {
        match &self.automaton {
            Automaton::Small(t) => t.is_match(text),
            Automaton::Large(t) => t.is_match(text),
        }
    }
}

// ----------------------------------------------------------------- parser

fn parse(pattern: &str) -> Result<Node, Error> {
    let mut p = PatternParser {
        pattern,
        pos: 0,
        depth: 0,
    };
    let ast = p.parse_alt()?;
    if let Some(c) = p.peek() {
        let at = pattern[..p.pos].chars().count();
        return Err(Error(format!("unexpected '{c}' at {at}")));
    }
    Ok(ast)
}

struct PatternParser<'a> {
    pattern: &'a str,
    /// Byte offset of the next char.
    pos: usize,
    /// Open groups around `pos`.
    depth: usize,
}

impl PatternParser<'_> {
    fn peek(&self) -> Option<char> {
        match *self.pattern.as_bytes().get(self.pos)? {
            b if b.is_ascii() => Some(b as char),
            _ => self.pattern[self.pos..].chars().next(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn at_branch_end(&self) -> bool {
        matches!(self.peek(), None | Some('|') | Some(')'))
    }

    fn parse_alt(&mut self) -> Result<Node, Error> {
        let first = self.parse_concat()?;
        if self.peek() != Some('|') {
            return Ok(first);
        }
        let mut branches = Vec::with_capacity(4);
        branches.push(first);
        while self.peek() == Some('|') {
            self.bump();
            branches.push(self.parse_concat()?);
        }
        Ok(Node::Alt(branches))
    }

    fn parse_concat(&mut self) -> Result<Node, Error> {
        if self.at_branch_end() {
            return Ok(Node::Concat(Vec::new()));
        }
        let first = self.parse_repeat()?;
        if self.at_branch_end() {
            return Ok(first);
        }
        let mut nodes = Vec::with_capacity(4);
        nodes.push(first);
        while !self.at_branch_end() {
            nodes.push(self.parse_repeat()?);
        }
        Ok(Node::Concat(nodes))
    }

    fn parse_repeat(&mut self) -> Result<Node, Error> {
        let atom = self.parse_atom()?;
        let (min, max) = match self.peek() {
            Some('*') => (0, None),
            Some('+') => (1, None),
            Some('?') => (0, Some(1)),
            Some('{') => {
                // Only treat as a quantifier when it parses as one; `{`
                // otherwise behaves like a literal (matching the real crate's
                // lenient handling of non-quantifier braces).
                let Some((min, max, consumed)) = self.try_parse_braces() else {
                    return Ok(atom);
                };
                if let Some(max) = max.filter(|&max| max < min) {
                    return Err(Error(format!("invalid repetition range {{{min},{max}}}")));
                }
                self.pos += consumed;
                return Ok(Node::Repeat {
                    node: Box::new(atom),
                    min,
                    max,
                });
            }
            _ => return Ok(atom),
        };
        self.bump();
        Ok(Node::Repeat {
            node: Box::new(atom),
            min,
            max,
        })
    }

    /// Try to read `{m}`, `{m,}` or `{m,n}` starting at `self.pos` (which
    /// points at `{`). Returns `(min, max, bytes_consumed)` without consuming.
    fn try_parse_braces(&self) -> Option<(u32, Option<u32>, usize)> {
        let rest = &self.pattern[self.pos..];
        let close = rest.find('}')?;
        let inner = &rest[1..close];
        let consumed = close + 1;
        if let Some((lo, hi)) = inner.split_once(',') {
            let min = lo.parse().ok()?;
            let max = if hi.is_empty() {
                None
            } else {
                Some(hi.parse().ok()?)
            };
            Some((min, max, consumed))
        } else {
            let n = inner.parse().ok()?;
            Some((n, Some(n), consumed))
        }
    }

    fn parse_atom(&mut self) -> Result<Node, Error> {
        match self.bump() {
            None => Err(Error("unexpected end of pattern".into())),
            Some('(') => {
                // Swallow non-capturing / named-group markers.
                if self.peek() == Some('?') {
                    self.bump();
                    if self.peek() == Some(':') {
                        self.bump();
                    }
                }
                if self.depth == MAX_NEST {
                    return Err(Error(format!("groups nested deeper than {MAX_NEST}")));
                }
                self.depth += 1;
                let inner = self.parse_alt()?;
                self.depth -= 1;
                match self.bump() {
                    Some(')') => Ok(inner),
                    _ => Err(Error("unclosed group".into())),
                }
            }
            Some(')') => Err(Error("unopened group".into())),
            Some('[') => self.parse_class(),
            Some('.') => Ok(Node::Any),
            Some('^') => Ok(Node::Start),
            Some('$') => Ok(Node::End),
            Some('*') | Some('+') => Err(Error("dangling quantifier".into())),
            Some('\\') => self.parse_escape(),
            Some(c) => Ok(Node::Char(c)),
        }
    }

    fn parse_escape(&mut self) -> Result<Node, Error> {
        let class = |negated, ranges| {
            Ok(Node::Class {
                negated,
                ranges: Cow::Borrowed(ranges),
            })
        };
        match self.bump() {
            None => Err(Error("trailing backslash".into())),
            Some('d') => class(false, DIGIT),
            Some('D') => class(true, DIGIT),
            Some('w') => class(false, WORD),
            Some('W') => class(true, WORD),
            Some('s') => class(false, SPACE),
            Some('S') => class(true, SPACE),
            Some('n') => Ok(Node::Char('\n')),
            Some('t') => Ok(Node::Char('\t')),
            Some('r') => Ok(Node::Char('\r')),
            Some(c) => Ok(Node::Char(c)), // escaped metacharacter
        }
    }

    fn parse_class(&mut self) -> Result<Node, Error> {
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        loop {
            let c = match self.bump() {
                None => return Err(Error("unclosed character class".into())),
                Some(']') => break, // `[]` — empty class matches nothing
                Some('\\') => match self.bump() {
                    None => return Err(Error("trailing backslash in class".into())),
                    Some('d') => {
                        ranges.push(('0', '9'));
                        continue;
                    }
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some(e) => e,
                },
                Some(c) => c,
            };
            if self.peek() == Some('-') && !self.pattern[self.pos + 1..].starts_with(']') {
                self.bump();
                let hi = self
                    .bump()
                    .ok_or_else(|| Error("unclosed range in class".into()))?;
                ranges.push((c, hi));
            } else {
                ranges.push((c, c));
            }
        }
        Ok(Node::Class {
            negated,
            ranges: Cow::Owned(ranges),
        })
    }
}

const DIGIT: &[(char, char)] = &[('0', '9')];
const WORD: &[(char, char)] = &[('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')];
const SPACE: &[(char, char)] = &[(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')];

// --------------------------------------------------------------- compiler

/// One instruction of the Thompson program. `Consume` and `Assert` fall
/// through to the next instruction.
#[derive(Debug, Clone, Copy)]
enum Inst {
    /// Consume one char the state's class accepts.
    Consume(usize),
    Split(usize, usize),
    Jump(usize),
    /// `^` (`true`) or `$` (`false`).
    Assert(bool),
    Match,
}

/// What a state tests a char against: its ASCII half as a byte mask, and
/// for other chars the ranges that reach past ASCII (none, and no
/// allocation, for most classes).
#[derive(Debug, Clone)]
struct Class {
    ascii: u128,
    negated: bool,
    wide: Box<[(char, char)]>,
}

impl Class {
    fn new(negated: bool, ranges: &[(char, char)]) -> Class {
        let mut ascii = 0u128;
        for &(lo, hi) in ranges {
            let (lo, hi) = (lo as u32, (hi as u32).min(127));
            if lo <= hi {
                ascii |= (u128::MAX >> (127 - hi)) & (u128::MAX << lo);
            }
        }
        Class {
            ascii: if negated { !ascii } else { ascii },
            negated,
            wide: ranges
                .iter()
                .filter(|(_, hi)| !hi.is_ascii())
                .copied()
                .collect(),
        }
    }

    fn accepts(&self, c: char) -> bool {
        if c.is_ascii() {
            self.ascii >> c as u32 & 1 != 0
        } else {
            self.wide.iter().any(|&(lo, hi)| lo <= c && c <= hi) != self.negated
        }
    }
}

/// What a node compiles to, saturating: checked against [`MAX_INSTS`]
/// before any instruction is emitted.
#[derive(Debug, Clone, Copy)]
struct Size {
    insts: usize,
    /// The `Consume` instructions among them.
    states: usize,
}

impl Size {
    fn plus(self, other: Size) -> Size {
        Size {
            insts: self.insts.saturating_add(other.insts),
            states: self.states.saturating_add(other.states),
        }
    }

    fn times(self, k: u32) -> Size {
        Size {
            insts: self.insts.saturating_mul(k as usize),
            states: self.states.saturating_mul(k as usize),
        }
    }

    fn of(node: &Node) -> Size {
        let size = |insts, states| Size { insts, states };
        match node {
            Node::Char(_) | Node::Any | Node::Class { .. } => size(1, 1),
            Node::Start | Node::End => size(1, 0),
            Node::Concat(nodes) => nodes
                .iter()
                .fold(size(0, 0), |sum, node| sum.plus(Size::of(node))),
            Node::Alt(branches) => branches
                .iter()
                .fold(size(2 * (branches.len() - 1), 0), |sum, b| {
                    sum.plus(Size::of(b))
                }),
            Node::Repeat { node, min, max } => {
                let one = Size::of(node);
                let optional = match max {
                    None => one.plus(size(2, 0)),
                    Some(max) => one.plus(size(1, 0)).times(max - min),
                };
                one.times(*min).plus(optional)
            }
        }
    }
}

/// The target of a split or jump whose exit is not emitted yet.
const PENDING: usize = usize::MAX;

/// Emits the program and, per `Consume`, its state with the follow
/// closures still empty.
struct Compiler<S> {
    insts: Vec<Inst>,
    states: Vec<State<S>>,
    /// Bits of a state set: the states and the match.
    bits: usize,
}

impl<S: StateSet> Compiler<S> {
    fn push(&mut self, inst: Inst) -> usize {
        self.insts.push(inst);
        self.insts.len() - 1
    }

    /// Points the pending exits emitted since `start` at the next
    /// instruction. Nested constructs patched their own already.
    fn patch(&mut self, start: usize) {
        let out = self.insts.len();
        for inst in &mut self.insts[start..] {
            if let Inst::Jump(to) | Inst::Split(_, to) = inst {
                if *to == PENDING {
                    *to = out;
                }
            }
        }
    }

    fn emit(&mut self, node: &Node) {
        match node {
            Node::Char(c) => self.consume(Class::new(false, &[(*c, *c)])),
            Node::Any => self.consume(Class::new(true, &[])),
            Node::Class { negated, ranges } => self.consume(Class::new(*negated, ranges)),
            Node::Start => _ = self.push(Inst::Assert(true)),
            Node::End => _ = self.push(Inst::Assert(false)),
            Node::Concat(nodes) => nodes.iter().for_each(|n| self.emit(n)),
            Node::Alt(branches) => {
                // Split(b0, next) b0 Jump(out) | Split(b1, next) b1 Jump(out) | … | b_last
                let (last, init) = branches.split_last().expect("an Alt has two branches");
                let start = self.insts.len();
                for b in init {
                    let split = self.push(Inst::Split(0, 0));
                    self.emit(b);
                    self.push(Inst::Jump(PENDING));
                    self.insts[split] = Inst::Split(split + 1, self.insts.len());
                }
                self.emit(last);
                self.patch(start);
            }
            Node::Repeat { node, min, max } => {
                for _ in 0..*min {
                    self.emit(node);
                }
                match max {
                    None => {
                        let split = self.push(Inst::Split(0, 0));
                        self.emit(node);
                        self.push(Inst::Jump(split));
                        self.insts[split] = Inst::Split(split + 1, self.insts.len());
                    }
                    Some(max) => {
                        // Nested optionals: each may skip to the very end.
                        let start = self.insts.len();
                        for _ in *min..*max {
                            self.push(Inst::Split(self.insts.len() + 1, PENDING));
                            self.emit(node);
                        }
                        self.patch(start);
                    }
                }
            }
        }
    }

    fn consume(&mut self, class: Class) {
        self.push(Inst::Consume(self.states.len()));
        let empty = S::empty(self.bits);
        self.states.push(State {
            class,
            follow: [empty.clone(), empty],
        });
    }

    /// The states and match reachable from `pc` through splits, jumps and
    /// the assertions that hold, under each `(at_start, at_end)` context
    /// of `contexts`, in one walk: `reach` holds, per instruction, the
    /// contexts that got there (one bit each), and an instruction is
    /// walked again only when a context newly reaches it.
    fn closures<const N: usize>(
        &self,
        reach: &mut [u8],
        pc: usize,
        contexts: [(bool, bool); N],
    ) -> [S; N] {
        let mut sets: [S; N] = std::array::from_fn(|_| S::empty(self.bits));
        if let Inst::Consume(s) = self.insts[pc] {
            // Most follows are the next state alone.
            sets.iter_mut().for_each(|set| set.insert(s));
            return sets;
        }
        let holds = |start: bool| {
            (0..N)
                .filter(|&k| if start { contexts[k].0 } else { contexts[k].1 })
                .fold(0u8, |mask, k| mask | 1 << k)
        };
        let (at_start, at_end) = (holds(true), holds(false));
        reach.fill(0);
        let mut todo = S::empty(self.insts.len());
        let visit = |reach: &mut [u8], todo: &mut S, to: usize, by: u8| {
            if by & !reach[to] != 0 {
                reach[to] |= by;
                todo.insert(to);
            }
        };
        visit(reach, &mut todo, pc, (1 << N) - 1);
        while let Some(pc) = todo.pop() {
            let by = reach[pc];
            let mut add = |bit: usize| {
                for (k, set) in sets.iter_mut().enumerate() {
                    if by >> k & 1 != 0 {
                        set.insert(bit);
                    }
                }
            };
            match self.insts[pc] {
                Inst::Consume(s) => add(s),
                Inst::Match => add(self.states.len()),
                Inst::Jump(to) => visit(reach, &mut todo, to, by),
                Inst::Split(a, b) => {
                    visit(reach, &mut todo, a, by);
                    visit(reach, &mut todo, b, by);
                }
                Inst::Assert(start) => {
                    let holds = if start { at_start } else { at_end };
                    visit(reach, &mut todo, pc + 1, by & holds);
                }
            }
        }
        sets
    }
}

// ---------------------------------------------------------------- matcher

/// A set of bits: states and the match while matching, instructions
/// while compiling.
trait StateSet: Clone + std::fmt::Debug {
    fn empty(bits: usize) -> Self;
    fn insert(&mut self, bit: usize);
    fn contains(&self, bit: usize) -> bool;
    fn is_empty(&self) -> bool;
    fn clear(&mut self);
    fn union(&mut self, other: &Self);
    /// Removes and returns the lowest bit.
    fn pop(&mut self) -> Option<usize>;
    fn for_each(&self, f: impl FnMut(usize));
}

impl StateSet for u128 {
    fn empty(_: usize) -> Self {
        0
    }
    fn insert(&mut self, bit: usize) {
        *self |= 1 << bit;
    }
    fn contains(&self, bit: usize) -> bool {
        *self >> bit & 1 != 0
    }
    fn is_empty(&self) -> bool {
        *self == 0
    }
    fn clear(&mut self) {
        *self = 0;
    }
    fn union(&mut self, other: &Self) {
        *self |= other;
    }
    fn pop(&mut self) -> Option<usize> {
        let bit = (*self != 0).then(|| self.trailing_zeros() as usize)?;
        *self &= *self - 1;
        Some(bit)
    }
    fn for_each(&self, mut f: impl FnMut(usize)) {
        let mut rest = *self;
        while let Some(bit) = rest.pop() {
            f(bit);
        }
    }
}

/// A set past 128 bits.
#[derive(Debug, Clone)]
struct BitSet(Box<[u64]>);

impl StateSet for BitSet {
    fn empty(bits: usize) -> Self {
        BitSet(vec![0; bits.div_ceil(64)].into())
    }
    fn insert(&mut self, bit: usize) {
        self.0[bit / 64] |= 1 << (bit % 64);
    }
    fn contains(&self, bit: usize) -> bool {
        self.0[bit / 64] >> (bit % 64) & 1 != 0
    }
    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
    fn clear(&mut self) {
        self.0.fill(0);
    }
    fn union(&mut self, other: &Self) {
        for (w, o) in self.0.iter_mut().zip(other.0.iter()) {
            *w |= o;
        }
    }
    fn pop(&mut self) -> Option<usize> {
        let (i, word) = self.0.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(i * 64 + bit)
    }
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for (i, &word) in self.0.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                f(i * 64 + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
    }
}

/// The compiled form: `u128` sets when the program has at most 128
/// instructions, heap sets above that.
#[derive(Debug, Clone)]
enum Automaton {
    Small(Tables<u128>),
    Large(Tables<BitSet>),
}

impl Automaton {
    fn compile(ast: &Node) -> Result<Automaton, Error> {
        // The program ends in one `Match`.
        let size = Size::of(ast).plus(Size {
            insts: 1,
            states: 0,
        });
        if size.insts > MAX_INSTS {
            return Err(Error(format!(
                "compiled regex exceeds size limit of {MAX_INSTS} instructions"
            )));
        }
        Ok(if size.insts <= 128 {
            Automaton::Small(Tables::new(ast, size))
        } else {
            Automaton::Large(Tables::new(ast, size))
        })
    }
}

/// A state: one `Consume` instruction of the program, in program order.
#[derive(Debug, Clone)]
struct State<S> {
    class: Class,
    /// The closure after it consumes: `[mid-text, at the end]`.
    follow: [S; 2],
}

/// The closure tables of one program; bit `states.len()` is the match.
#[derive(Debug, Clone)]
struct Tables<S> {
    states: Box<[State<S>]>,
    /// The search's entry closure, indexed `at_start * 2 + at_end`.
    start: [S; 4],
    /// No state enters after the first position (the pattern starts
    /// with `^`), so an empty set ends the search.
    anchored: bool,
}

impl<S: StateSet> Tables<S> {
    fn new(ast: &Node, size: Size) -> Tables<S> {
        let mut c = Compiler {
            insts: Vec::with_capacity(size.insts),
            states: Vec::with_capacity(size.states),
            bits: size.states + 1,
        };
        c.emit(ast);
        c.push(Inst::Match);
        // The walk's per-instruction masks: on the stack for a small
        // program.
        let (mut small, mut large) = ([0; 128], Vec::new());
        let reach = if c.insts.len() <= small.len() {
            &mut small[..c.insts.len()]
        } else {
            large.resize(c.insts.len(), 0);
            &mut large[..]
        };
        let contexts = [(false, false), (false, true), (true, false), (true, true)];
        let start: [S; 4] = c.closures(reach, 0, contexts);
        let mut s = 0;
        for pc in 0..c.insts.len() {
            if let Inst::Consume(_) = c.insts[pc] {
                let follow = [(false, false), (false, true)];
                c.states[s].follow = c.closures(reach, pc + 1, follow);
                s += 1;
            }
        }
        let anchored = start[0].is_empty() && start[1].is_empty();
        Tables {
            states: c.states.into(),
            start,
            anchored,
        }
    }

    fn is_match(&self, text: &str) -> bool {
        let start = self.start[2 + usize::from(text.is_empty())].clone();
        let end = text.len();
        if text.is_ascii() {
            let bytes = text.bytes().enumerate();
            self.search(start, bytes.map(|(i, b)| (b as char, i + 1 == end)))
        } else {
            let chars = text.char_indices();
            self.search(start, chars.map(|(i, c)| (c, i + c.len_utf8() == end)))
        }
    }

    /// Runs the chars, each with whether it is the text's last, from the
    /// set entered at the text's start.
    fn search(&self, mut cur: S, text: impl Iterator<Item = (char, bool)>) -> bool {
        let matched = self.states.len();
        let mut next = S::empty(matched + 1);
        for (c, at_end) in text {
            if cur.contains(matched) {
                return true;
            }
            if cur.is_empty() && self.anchored {
                return false;
            }
            self.step(&cur, &mut next, at_end, |class| class.accepts(c));
            std::mem::swap(&mut cur, &mut next);
        }
        cur.contains(matched)
    }

    /// Into `next`: the follow closures of the states in `cur` that accept
    /// the char, and a new search entering at the next position.
    fn step(&self, cur: &S, next: &mut S, at_end: bool, accepts: impl Fn(&Class) -> bool) {
        next.clear();
        cur.for_each(|s| {
            let state = &self.states[s];
            if accepts(&state.class) {
                next.union(&state.follow[usize::from(at_end)]);
            }
        });
        next.union(&self.start[usize::from(at_end)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Regex::new(pat).unwrap().is_match(text)
    }

    /// The backtracking matcher the automaton replaced, kept as the
    /// differential reference. It does not return on a nullable atom under
    /// an unbounded quantifier, and its progress probe reads only an atom's
    /// first match, so it rejects `^(a*|b){0,2}$` on `"b"`: a reference
    /// only for patterns whose quantified atoms are not nullable.
    fn reference(pattern: &str, text: &str) -> bool {
        let ast = parse(pattern).unwrap();
        let chars: Vec<char> = text.chars().collect();
        (0..=chars.len()).any(|start| matches_at(&[&ast], &chars, start, start == 0).is_some())
    }

    /// Does the node sequence `seq` match starting at `pos`? Returns the
    /// end position of a match. `at_text_start` disambiguates `^` when the
    /// search starts mid-string.
    fn matches_at(seq: &[&Node], text: &[char], pos: usize, at_text_start: bool) -> Option<usize> {
        let Some((&first, rest)) = seq.split_first() else {
            return Some(pos);
        };
        match first {
            Node::Char(c) => (text.get(pos) == Some(c))
                .then_some(())
                .and_then(|_| matches_at(rest, text, pos + 1, false)),
            Node::Any => (pos < text.len())
                .then_some(())
                .and_then(|_| matches_at(rest, text, pos + 1, false)),
            Node::Class { negated, ranges } => {
                let &c = text.get(pos)?;
                let inside = ranges.iter().any(|&(lo, hi)| c >= lo && c <= hi);
                (inside != *negated)
                    .then_some(())
                    .and_then(|_| matches_at(rest, text, pos + 1, false))
            }
            Node::Start => (pos == 0 && at_text_start)
                .then_some(())
                .and_then(|_| matches_at(rest, text, pos, at_text_start)),
            Node::End => (pos == text.len())
                .then_some(())
                .and_then(|_| matches_at(rest, text, pos, at_text_start)),
            Node::Concat(nodes) => {
                let mut merged: Vec<&Node> = nodes.iter().collect();
                merged.extend_from_slice(rest);
                matches_at(&merged, text, pos, at_text_start)
            }
            Node::Alt(branches) => branches.iter().find_map(|b| {
                let mut seq2: Vec<&Node> = vec![b];
                seq2.extend_from_slice(rest);
                matches_at(&seq2, text, pos, at_text_start)
            }),
            Node::Repeat { node, min, max } => {
                if max.is_none_or(|m| m > 0) {
                    let dec = Node::Repeat {
                        node: node.clone(),
                        min: min.saturating_sub(1),
                        max: max.map(|m| m - 1),
                    };
                    let mut seq2: Vec<&Node> = vec![node, &dec];
                    seq2.extend_from_slice(rest);
                    // Greedy: prefer consuming another repetition first,
                    // when the atom's first match consumes input.
                    let probe: Vec<&Node> = vec![node.as_ref()];
                    if matches_at(&probe, text, pos, at_text_start).is_some_and(|end| end > pos)
                        || *min > 0
                    {
                        if let Some(end) = matches_at(&seq2, text, pos, at_text_start) {
                            return Some(end);
                        }
                    }
                }
                if *min == 0 {
                    matches_at(rest, text, pos, at_text_start)
                } else {
                    None
                }
            }
        }
    }

    #[test]
    fn anchors_and_alternation() {
        assert!(m("^12345( |$)", "12345 64512"));
        assert!(m("^12345( |$)", "12345"));
        assert!(!m("^12345( |$)", "123456"));
        assert!(!m("^12345( |$)", "512345"));
        assert!(m("^1", "1 2 3"));
        assert!(!m("^1", "2 1"));
    }

    #[test]
    fn classes_and_quantifiers() {
        assert!(m("[a-z]{1,4}$", "abc"));
        assert!(m("a+b?c*", "aa"));
        assert!(!m("^a+$", "b"));
        assert!(m("^[0-9]+( [0-9]+)*$", "10 20 30"));
        assert!(!m("^[^0-9]+$", "a1b"));
        assert!(m(r"^\d+$", "42"));
        assert!(m("^(ab|cd)+$", "abcdab"));
    }

    #[test]
    fn unanchored_search() {
        assert!(m("234", "12345"));
        assert!(!m("235", "12345"));
        assert!(m("", ""));
        assert!(m("$", "12"));
        assert!(!m("^$", "1"));
    }

    #[test]
    #[allow(clippy::invalid_regex)]
    fn invalid_patterns_error() {
        assert!(Regex::new("(").is_err());
        assert!(Regex::new(")").is_err());
        assert!(Regex::new("[abc").is_err());
        assert!(Regex::new("*x").is_err());
    }

    /// The backtracker recursed without end on these and aborted the
    /// process with a stack overflow; a document could carry them.
    #[test]
    fn nullable_groups_under_quantifiers_match_like_any_pattern() {
        assert!(!m("(6?)*5", "60001 30002"));
        assert!(m("(6?)*5", "60001 35"));
        assert!(!m("(a?)*x", "ab"));
        assert!(m("^(a?)*x$", "aax"));
        assert!(m("^(|a)*b$", "ab"));
        assert!(m("^(a*)+$", ""));
        // Where the backtracker's probe said no, the language says yes.
        assert!(m("^(a*|b){0,2}$", "b"));
        assert!(m("^(^|a){2}b", "ab"));
    }

    #[test]
    fn counted_repeats_past_the_size_cap_fail_to_compile() {
        for pattern in [
            "6{4294967295}",
            "6{4294967295,}",
            "(6{1000}){1000}",
            "6{0,4294967295}",
        ] {
            let err = Regex::new(pattern).unwrap_err();
            assert!(err.to_string().contains("size limit"), "{pattern}: {err}");
        }
        // The cap counts the match instruction too.
        assert!(Regex::new(&format!("6{{{}}}", MAX_INSTS)).is_err());
        let longest = Regex::new(&format!("6{{{}}}", MAX_INSTS - 1)).unwrap();
        assert!(longest.is_match(&"6".repeat(MAX_INSTS - 1)));
        assert!(!longest.is_match(&"6".repeat(MAX_INSTS - 2)));
    }

    #[test]
    #[allow(clippy::invalid_regex)]
    fn reversed_repetition_range_is_an_error() {
        let err = Regex::new("6{2,1}").unwrap_err();
        assert!(
            err.to_string().contains("invalid repetition range"),
            "{err}"
        );
        assert!(m("^6{1,1}$", "6"));
        assert!(m("^x6{0,0}$", "x"));
        assert!(m("^6{2,}$", "666"));
        // Not a quantifier at all: a literal brace, as before.
        assert!(m("6{,1}", "6{,1}"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("{}6{}", "(".repeat(100_000), ")".repeat(100_000));
        assert!(Regex::new(&deep).is_err());
        let ok = format!("{}6{}", "(".repeat(MAX_NEST), ")".repeat(MAX_NEST));
        assert!(m(&ok, "6"));
    }

    #[test]
    fn programs_past_128_instructions_use_heap_sets() {
        // `^`, the digits, `$` and the match.
        let small = Regex::new(r"^\d{125}$").unwrap();
        assert!(matches!(small.automaton, Automaton::Small(_)));
        assert!(small.is_match(&"7".repeat(125)));
        assert!(!small.is_match(&"7".repeat(126)));
        let re = Regex::new(r"^\d{200}$").unwrap();
        assert!(matches!(re.automaton, Automaton::Large(_)));
        assert!(re.is_match(&"7".repeat(200)));
        assert!(!re.is_match(&"7".repeat(199)));
        assert!(!re.is_match(&"7".repeat(201)));
        let re = Regex::new(r"6\d{150} ").unwrap();
        let text = format!("1 6{} 2", "0".repeat(150));
        assert!(re.is_match(&text));
        assert!(!re.is_match(&text.replacen(' ', "", 2)));
        assert!(matches!(
            Regex::new(r"(^| )6\d{4}$").unwrap().automaton,
            Automaton::Small(_)
        ));
    }

    #[test]
    fn non_ascii_text_steps_by_char() {
        assert!(m("^é.$", "éx"));
        assert!(m("^.$", "→"));
        assert!(m("[^a]", "é"));
        assert!(!m(r"\w", "é"));
        assert!(m(r"\W", "é"));
        assert!(m("[à-ï]b$", "aèb"));
        assert!(!m("^[à-ï]b$", "aèb"));
        assert!(m(r"6\d{4}$", "x→ 65001"));
    }

    /// xorshift64*: a fixed seed and no RNG crate, so a failing pair
    /// reproduces.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// What the generator knows of a generated piece.
    #[derive(Clone, Copy)]
    struct Shape {
        /// It matches the empty string.
        nullable: bool,
        /// It holds an unbounded quantifier.
        unbounded: bool,
    }

    /// Appends a random alternation.
    fn gen_alt(rng: &mut XorShift, depth: usize, out: &mut String) -> Shape {
        let branches = if depth < 2 && rng.below(4) == 0 {
            2 + rng.below(2)
        } else {
            1
        };
        let mut alt = Shape {
            nullable: false,
            unbounded: false,
        };
        for i in 0..branches {
            if i > 0 {
                out.push('|');
            }
            let mut nullable = true;
            for _ in 0..rng.below(4) {
                let piece = gen_repeat(rng, depth, out);
                nullable &= piece.nullable;
                alt.unbounded |= piece.unbounded;
            }
            alt.nullable |= nullable;
        }
        alt
    }

    /// An atom and maybe a quantifier. The reference limits which atoms
    /// are quantified: never a nullable one (see `reference`), and never
    /// unboundedly one that holds an unbounded quantifier, on which it
    /// backtracks exponentially (`(.+)+x`).
    fn gen_repeat(rng: &mut XorShift, depth: usize, out: &mut String) -> Shape {
        let leaf = |out: &mut String, s: &str| {
            out.push_str(s);
            Shape {
                nullable: false,
                unbounded: false,
            }
        };
        let atom = match rng.below(if depth < 3 { 10 } else { 8 }) {
            0..=2 => leaf(out, rng.pick(&["6", "5", "0", "1", "a", "b", " ", r"\."])),
            3 => leaf(out, "."),
            4 => leaf(
                out,
                rng.pick(&[
                    "[0-5]", "[^0-9]", "[a-c ]", "[^ ]", r"[\d]", "[65]", "[^6a]",
                ]),
            ),
            5 => leaf(out, rng.pick(&[r"\d", r"\w", r"\s", r"\D", r"\W", r"\S"])),
            6 => {
                out.push_str(rng.pick(&["^", "$"]));
                Shape {
                    nullable: true,
                    unbounded: false,
                }
            }
            7 => leaf(out, rng.pick(&[r"\d", "6", "0"])),
            _ => {
                out.push_str(rng.pick(&["(", "(?:"]));
                let inner = gen_alt(rng, depth + 1, out);
                out.push(')');
                inner
            }
        };
        if atom.nullable || rng.below(3) == 0 {
            return atom;
        }
        let (lo, hi) = (rng.below(3), rng.below(3));
        let bounded = [
            ("?".to_string(), true),
            (format!("{{{lo}}}"), lo == 0),
            (format!("{{{lo},{}}}", lo + hi), lo == 0),
        ];
        let unbounded = [
            ("*".to_string(), true),
            ("+".to_string(), false),
            (format!("{{{lo},}}"), lo == 0),
        ];
        let pick = rng.below(if atom.unbounded { 3 } else { 6 });
        let (quantifier, nullable) = bounded.iter().chain(&unbounded).nth(pick).expect("six");
        out.push_str(quantifier);
        Shape {
            nullable: *nullable,
            unbounded: atom.unbounded || pick >= 3,
        }
    }

    fn gen_text(rng: &mut XorShift) -> String {
        let mut text = String::new();
        for i in 0..rng.below(5) {
            if i > 0 {
                text.push(' ');
            }
            for _ in 0..1 + rng.below(5) {
                text.push_str(rng.pick(&["6", "6", "5", "0", "0", "1", "3", "a", "b"]));
            }
        }
        if rng.below(20) == 0 {
            let at = text.len() - text.len() / 2;
            text.insert_str(at, rng.pick(&["é", "→", "ß"]));
        }
        text
    }

    /// 100k (pattern, text) pairs against the backtracker, over every
    /// construct the parser reads.
    #[test]
    fn automaton_agrees_with_the_backtracker() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut pairs = 0;
        let mut matched = 0;
        for _ in 0..20_000 {
            let mut pattern = String::new();
            gen_alt(&mut rng, 0, &mut pattern);
            let re = Regex::new(&pattern).unwrap_or_else(|e| panic!("{pattern:?}: {e}"));
            for _ in 0..5 {
                let text = gen_text(&mut rng);
                let want = reference(&pattern, &text);
                assert_eq!(re.is_match(&text), want, "pattern {pattern:?} on {text:?}");
                pairs += 1;
                matched += usize::from(want);
            }
        }
        assert_eq!(pairs, 100_000);
        // Both verdicts are well represented.
        assert!(
            (20_000..80_000).contains(&matched),
            "{matched} of {pairs} matched"
        );
    }
}
