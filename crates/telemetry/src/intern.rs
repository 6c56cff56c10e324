//! String interning for trace/span component names.
//!
//! `TraceRing` used to clone a `String` per pushed record — measurable churn
//! when a packet-rate trace is enabled. The interner hands out [`Istr`]s
//! (shared, immutable strings): the first push of a given component name
//! allocates once, every later push is a reference-count bump.
//!
//! [`Istr`] derefs to `str`, so existing call sites that match on
//! `record.who` (`starts_with`, `as_bytes`, comparisons against literals)
//! keep working unchanged.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::fxhash::FxHashMap;

/// An interned, immutable string. Cloning is a ref-count bump.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Istr(Arc<str>);

impl Istr {
    /// Intern-free construction (allocates); prefer [`Interner::intern`]
    /// when the same string recurs.
    pub fn new(s: &str) -> Self {
        Istr(Arc::from(s))
    }

    /// The string contents.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Istr {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Istr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Istr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for Istr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Istr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Istr> for str {
    fn eq(&self, other: &Istr) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Istr> for &str {
    fn eq(&self, other: &Istr) -> bool {
        *self == other.as_str()
    }
}

impl fmt::Debug for Istr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Istr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Istr {
    fn from(s: &str) -> Self {
        Istr::new(s)
    }
}

/// Deduplicating string store. Also hands out dense `u32` ids for callers
/// that want array-indexed per-component state (the span log's components).
#[derive(Debug, Clone, Default)]
pub struct Interner {
    by_str: FxHashMap<Istr, u32>,
    strings: Vec<Istr>,
}

impl Interner {
    /// Intern `s`, allocating only on first sight.
    pub fn intern(&mut self, s: &str) -> Istr {
        if let Some(&id) = self.by_str.get(s) {
            return self.strings[id as usize].clone();
        }
        let i = Istr::new(s);
        let id = self.strings.len() as u32;
        self.by_str.insert(i.clone(), id);
        self.strings.push(i.clone());
        i
    }

    /// Intern `s` and return its dense id.
    pub fn intern_id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.by_str.get(s) {
            return id;
        }
        let i = Istr::new(s);
        let id = self.strings.len() as u32;
        self.by_str.insert(i.clone(), id);
        self.strings.push(i);
        id
    }

    /// The string behind a dense id.
    pub fn resolve(&self, id: u32) -> &Istr {
        &self.strings[id as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_to_same_allocation() {
        let mut i = Interner::default();
        let a = i.intern("s0/vm1");
        let b = i.intern("s0/vm1");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn dense_ids_are_stable_and_resolvable() {
        let mut i = Interner::default();
        let a = i.intern_id("tor0");
        let b = i.intern_id("s1");
        assert_eq!(i.intern_id("tor0"), a);
        assert_eq!(i.resolve(a).as_str(), "tor0");
        assert_eq!(i.resolve(b).as_str(), "s1");
    }

    #[test]
    fn istr_behaves_like_str() {
        let s = Istr::new("s1/vm2");
        assert!(s.starts_with("s1"));
        assert_eq!(s.as_bytes(), b"s1/vm2");
        assert_eq!(s, "s1/vm2");
        assert_eq!("s1/vm2", s);
        assert_eq!(format!("{s}"), "s1/vm2");
    }
}
