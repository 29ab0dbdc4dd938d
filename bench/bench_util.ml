(* Shared helpers for the benchmark/experiment harness. *)

module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Prng = Tm_base.Prng
module Measure = Tm_sim.Measure

let section title =
  Printf.printf "\n=== %s ===\n" title

let row fmt = Printf.printf fmt

let pp_env = function
  | None -> "(no samples)"
  | Some e ->
      Printf.sprintf "[%s, %s] n=%d mean=%.3f"
        (Rational.to_string e.Measure.min)
        (Rational.to_string e.Measure.max)
        e.Measure.count e.Measure.mean

let pp_bounds (lo, hi) =
  Printf.sprintf "[%s, %s]" (Time.to_string lo) (Time.to_string hi)

let pp_interval iv = Interval.to_string iv

let verdict ok = if ok then "OK" else "MISMATCH"

let check_in iv env =
  match env with None -> false | Some e -> Measure.within iv e

(* exact (grid) bounds equal the closed-form interval? *)
let exact_matches iv (lo, hi) =
  Time.equal lo (Time.Fin (Interval.lo iv)) && Time.equal hi (Interval.hi iv)

(* GC accounting for the allocation report (E17): run [f] and return
   its result together with the minor words and the major words it
   allocated, total allocated bytes, and the major-heap peak
   (top_heap_words) observed over the run.  Word counts come from
   [Gc.counters], which reads the minor heap's allocation pointer and so
   is exact at any moment; [Gc.quick_stat]'s [minor_words] only advances
   at a minor collection, which quantizes a short run's figure to whole
   minor heaps.  OCaml 5 GC stats are domain-local, so callers that want
   deterministic figures must keep the measured work on this domain. *)
let with_gc_stats f =
  let b0 = Gc.allocated_bytes () in
  let minor0, _, major0 = Gc.counters () in
  let r = f () in
  let minor1, _, major1 = Gc.counters () in
  let b1 = Gc.allocated_bytes () in
  ( r,
    minor1 -. minor0,
    major1 -. major0,
    b1 -. b0,
    (Gc.quick_stat ()).Gc.top_heap_words )
