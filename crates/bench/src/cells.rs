//! Fan-out over independent cells.
//!
//! The paper's evaluation is a grid: every row of every table and figure
//! comes from one freshly built world (its own kernel, RNG and `NetCtx`)
//! that shares nothing with its neighbours. [`map`] runs such cells on
//! scoped threads and hands the results back in input order, so a caller
//! reads "list the cell parameters → `map` → render rows" and produces the
//! same bytes at any width.
//!
//! One process-wide budget bounds how many threads run cells at the same
//! time (default: `available_parallelism()`; the `experiments` binary's
//! `--threads N` / `--serial` set it). The caller of a `map` always works.
//! Every worker, each time it takes its next cell, checks the budget and
//! brings in one helper if there is room and another cell is waiting. A
//! `map` called from inside a cell therefore runs inline while the outer
//! one keeps the cores busy, and starts helpers of its own once outer
//! workers run out of cells and leave: nesting never oversubscribes, and a
//! long experiment absorbs the cores that finished ones free. At width 1 no
//! thread is ever spawned; the same loop runs the cells on the caller.
//!
//! Cells that are one history up to some instant — the same rack, diverging
//! only when a fault opens or a path shifts — need not re-simulate it:
//! [`fork`] runs each cell on its own copy of a world simulated once to the
//! last instant no cell can observe. A copy shares nothing with the world
//! or its siblings, so the rules for `map` hold unchanged.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::thread::Scope;

/// How many threads may run cells at once, and how many are.
struct Budget {
    /// 0 until first asked for or set: then `available_parallelism()`.
    width: AtomicUsize,
    busy: AtomicUsize,
}

static PROCESS: Budget = Budget::new(0);

thread_local! {
    /// Set while this thread holds a seat (it is inside a `map`, as its
    /// caller or as a helper), so a nested `map` does not take a second one.
    static SEATED: Cell<bool> = const { Cell::new(false) };
}

/// One unit of the budget; given back on drop.
struct Seat<'a>(&'a Budget);

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        self.0.busy.fetch_sub(1, SeqCst);
    }
}

/// The seat a top-level caller holds while it runs cells.
struct CallerSeat<'a> {
    _seat: Seat<'a>,
}

impl Drop for CallerSeat<'_> {
    fn drop(&mut self) {
        SEATED.set(false);
    }
}

impl Budget {
    const fn new(width: usize) -> Self {
        Budget {
            width: AtomicUsize::new(width),
            busy: AtomicUsize::new(0),
        }
    }

    fn width(&self) -> usize {
        match self.width.load(SeqCst) {
            0 => {
                let n = std::thread::available_parallelism().map_or(1, |n| n.get());
                // Remember it, unless a `set_width` got there first.
                match self.width.compare_exchange(0, n, SeqCst, SeqCst) {
                    Ok(_) => n,
                    Err(set) => set,
                }
            }
            n => n,
        }
    }

    /// Seat the calling thread whether or not there is room: the caller of
    /// a top-level `map` always works.
    fn seat_caller(&self) -> CallerSeat<'_> {
        self.busy.fetch_add(1, SeqCst);
        SEATED.set(true);
        CallerSeat { _seat: Seat(self) }
    }

    /// A seat for a helper, if the budget has room right now.
    fn try_seat(&self) -> Option<Seat<'_>> {
        let width = self.width();
        self.busy
            .fetch_update(SeqCst, SeqCst, |busy| (busy < width).then_some(busy + 1))
            .ok()
            .map(|_| Seat(self))
    }
}

/// Set the process-wide budget: at most `n` threads (at least 1) run cells
/// at the same time, callers included.
pub fn set_width(n: usize) {
    PROCESS.width.store(n.max(1), SeqCst);
}

/// The process-wide budget.
pub fn width() -> usize {
    PROCESS.width()
}

/// Run `f` over every item and return the results in input order.
///
/// Cells must be independent: `f` may run on another thread and cells run
/// in no particular order. If a cell panics, no further cells are started
/// and the first panic resumes on the caller once every helper has joined.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    map_in(&PROCESS, items, f)
}

/// Run `f` over every item, each on its own copy of `world`, and return the
/// results in input order.
///
/// For cells that share a history: simulate the shared prefix once, then
/// fork. Each cell clones `world` on the worker that runs it, under a lock;
/// the last cell to start takes `world` itself instead of a copy, so at
/// most one copy per worker is alive beside it, and none after. Scheduling
/// and panics behave as in [`map`].
pub fn fork<W: Clone + Send, T: Sync, R: Send>(
    world: W,
    items: &[T],
    f: impl Fn(W, &T) -> R + Sync,
) -> Vec<R> {
    fork_in(&PROCESS, world, items, f)
}

fn fork_in<W: Clone + Send, T: Sync, R: Send>(
    budget: &Budget,
    world: W,
    items: &[T],
    f: impl Fn(W, &T) -> R + Sync,
) -> Vec<R> {
    // The world, and how many cells have yet to take it.
    let shared = Mutex::new((Some(world), items.len()));
    map_in(budget, items, |item| {
        let copy = {
            let mut guard = shared.lock().expect("no cell panics while holding it");
            let (world, left) = &mut *guard;
            *left -= 1;
            if *left == 0 {
                world.take()
            } else {
                world.clone()
            }
        };
        f(
            copy.expect("every cell takes the world before the last"),
            item,
        )
    })
}

fn map_in<T: Sync, R: Send>(budget: &Budget, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let seat = (!SEATED.get()).then(|| budget.seat_caller());
    let run = Run {
        budget,
        items,
        f,
        next: AtomicUsize::new(0),
        out: items.iter().map(|_| Mutex::new(None)).collect(),
        panic: Mutex::new(None),
    };
    std::thread::scope(|s| {
        run.work(s);
        // A top-level caller only waits from here on: its seat goes to
        // whoever still has cells, before the scope joins the helpers.
        drop(seat);
    });
    if let Some(payload) = run.panic.into_inner().expect("no worker holds it now") {
        resume_unwind(payload);
    }
    run.out
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker holds it now")
                .expect("every cell ran")
        })
        .collect()
}

/// One `map` call's shared state.
struct Run<'a, T, R, F> {
    budget: &'a Budget,
    items: &'a [T],
    f: F,
    /// Index of the next cell nobody has taken.
    next: AtomicUsize,
    /// One slot per cell: results land by index, whoever ran the cell.
    out: Vec<Mutex<Option<R>>>,
    /// The first panic any worker caught.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T: Sync, R: Send, F: Fn(&T) -> R + Sync> Run<'_, T, R, F> {
    /// Take cells until none is left; the caller and every helper run this.
    fn work<'scope, 'env>(&'env self, s: &'scope Scope<'scope, 'env>) {
        let taken = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.next.fetch_add(1, SeqCst);
            let Some(item) = self.items.get(i) else { break };
            if i + 1 < self.items.len() {
                if let Some(seat) = self.budget.try_seat() {
                    s.spawn(move || {
                        let _seat = seat;
                        SEATED.set(true);
                        self.work(s);
                    });
                }
            }
            let r = (self.f)(item);
            *self.out[i].lock().expect("a slot has one writer") = Some(r);
        }));
        if let Err(payload) = taken {
            self.next.store(self.items.len(), SeqCst);
            self.panic
                .lock()
                .expect("nothing panics while holding it")
                .get_or_insert(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Condvar};
    use std::thread::ThreadId;

    /// High-water mark of concurrently running cells.
    #[derive(Default)]
    struct Gauge {
        now: AtomicUsize,
        max: AtomicUsize,
    }

    impl Gauge {
        fn enter(&self) {
            let n = self.now.fetch_add(1, SeqCst) + 1;
            self.max.fetch_max(n, SeqCst);
        }
        fn leave(&self) {
            self.now.fetch_sub(1, SeqCst);
        }
    }

    #[test]
    fn results_come_back_in_input_order_under_skewed_durations() {
        // Cell 0 cannot finish until cell 5 has: completion order is forced
        // to differ from input order, with no sleeps.
        let budget = Budget::new(3);
        let last_done = (Mutex::new(false), Condvar::new());
        let items: Vec<u64> = (0..6).collect();
        let out = map_in(&budget, &items, |&i| {
            if i == 0 {
                let mut done = last_done.0.lock().unwrap();
                while !*done {
                    done = last_done.1.wait(done).unwrap();
                }
            }
            if i == 5 {
                *last_done.0.lock().unwrap() = true;
                last_done.1.notify_all();
            }
            i * i
        });
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25]);
        assert_eq!(budget.busy.load(SeqCst), 0);
    }

    #[test]
    fn fills_the_budget_and_never_exceeds_it() {
        // Three cells wait for each other: passes only if three workers run
        // at once. The gauge proves there were never four.
        let budget = Budget::new(3);
        let gauge = Gauge::default();
        let all_in = Barrier::new(3);
        let items: Vec<usize> = (0..9).collect();
        map_in(&budget, &items, |&i| {
            gauge.enter();
            if i < 3 {
                all_in.wait();
            }
            gauge.leave();
        });
        assert_eq!(gauge.max.load(SeqCst), 3);
        assert_eq!(budget.busy.load(SeqCst), 0);
    }

    #[test]
    fn nested_maps_share_one_budget() {
        let budget = Budget::new(3);
        let gauge = Gauge::default();
        let outer: Vec<usize> = (0..4).collect();
        let inner: Vec<usize> = (0..8).collect();
        let sums = map_in(&budget, &outer, |&o| {
            map_in(&budget, &inner, |&i| {
                gauge.enter();
                std::thread::yield_now();
                gauge.leave();
                o * 100 + i
            })
            .into_iter()
            .sum::<usize>()
        });
        assert_eq!(sums, vec![28, 828, 1628, 2428]);
        let max = gauge.max.load(SeqCst);
        assert!((1..=3).contains(&max), "{max} inner cells ran at once");
        assert_eq!(budget.busy.load(SeqCst), 0);
    }

    #[test]
    fn inner_map_takes_over_seats_the_outer_one_frees() {
        // Outer cell 1 holds an inner map whose two cells wait for each
        // other: that needs a second worker, and at width 2 the only seat
        // for one is the seat the worker that ran outer cell 0 gave back.
        let budget = Budget::new(2);
        let both_in = Barrier::new(2);
        map_in(&budget, &[0, 1], |&o| {
            if o == 1 {
                while budget.busy.load(SeqCst) > 1 {
                    std::thread::yield_now(); // until cell 0's worker is gone
                }
                map_in(&budget, &[(); 2], |()| {
                    both_in.wait();
                });
            }
        });
        assert_eq!(budget.busy.load(SeqCst), 0);
    }

    #[test]
    fn width_one_runs_every_cell_on_the_caller() {
        let budget = Budget::new(1);
        let items: Vec<u32> = (0..16).collect();
        let ran_on: Vec<ThreadId> = map_in(&budget, &items, |_| std::thread::current().id());
        let me = std::thread::current().id();
        assert!(ran_on.iter().all(|&id| id == me));
    }

    /// A world that counts its live copies and how many clones were made.
    struct Counted<'a> {
        alive: &'a Gauge,
        clones: &'a AtomicUsize,
        log: Vec<u32>,
    }

    impl<'a> Counted<'a> {
        fn new(alive: &'a Gauge, clones: &'a AtomicUsize) -> Self {
            alive.enter();
            Counted {
                alive,
                clones,
                log: vec![7],
            }
        }
    }

    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, SeqCst);
            self.alive.enter();
            Counted {
                alive: self.alive,
                clones: self.clones,
                log: self.log.clone(),
            }
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.alive.leave();
        }
    }

    #[test]
    fn fork_gives_each_cell_its_own_copy_and_drops_the_world_after_the_last() {
        let budget = Budget::new(3);
        let (alive, clones) = (Gauge::default(), AtomicUsize::new(0));
        let items: Vec<u32> = (0..8).collect();
        let world = Counted::new(&alive, &clones);
        let out = fork_in(&budget, world, &items, |mut w, &i| {
            w.log.push(i);
            std::thread::yield_now();
            w.log.clone()
        });
        // Input order, and no cell saw another cell's writes.
        let want: Vec<Vec<u32>> = items.iter().map(|&i| vec![7, i]).collect();
        assert_eq!(out, want);
        assert_eq!(
            clones.load(SeqCst),
            items.len() - 1,
            "the last cell takes it"
        );
        let max = alive.max.load(SeqCst);
        assert!(max <= 1 + 3, "{max} worlds alive at once at width 3");
        assert_eq!(
            alive.now.load(SeqCst),
            0,
            "every copy and the world dropped"
        );
        assert_eq!(budget.busy.load(SeqCst), 0);
    }

    #[test]
    fn a_panicking_cell_reaches_the_caller_and_restores_the_budget() {
        let budget = Budget::new(3);
        let items: Vec<u32> = (0..12).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map_in(&budget, &items, |&i| {
                if i == 4 {
                    panic!("cell {i} failed");
                }
                i
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("cell 4 failed")
        );
        assert_eq!(budget.busy.load(SeqCst), 0, "every seat given back");
        assert!(!SEATED.get(), "the caller is no longer seated");
        // ... and the budget still works.
        assert_eq!(map_in(&budget, &[1, 2, 3], |&i| i + 1), vec![2, 3, 4]);
    }
}
