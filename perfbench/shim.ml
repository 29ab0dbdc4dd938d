(* Kernel shim: a [Dbm_sig.S] that forwards every operation to a real
   kernel and counts (and times) the calls the zone engine makes.

   [Reach.Make (Traced (Dbm_int))] explores exactly like [Reach.Int]:
   the zone type, [name] (so every fingerprint), [Arena] and the
   semantics of each operation are the wrapped kernel's own.  Only the
   [Scratch] and [Min] entry points and the few persistent operations
   [Reach] calls per edge gain a counter and a monotonic-clock
   reading.  [Auto] copies [Reach.Auto]'s per-call integrality choice,
   so the traced run measures the program the untraced run executes. *)

module Reach = Tm_zones.Reach
module Boundmap = Tm_timed.Boundmap
module Condition = Tm_timed.Condition
module Rational = Tm_base.Rational
module Interval = Tm_base.Interval
module Time = Tm_base.Time

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type op = { mutable calls : int; mutable ns : int }

let op () = { calls = 0; ns = 0 }

(* One record for both wrapped kernels: the layer is "the DBM kernel",
   whichever one [Auto] picked for the call. *)
type t = {
  load : op;
  constrain : op;
  reset : op;
  free : op;
  up : op;
  is_empty : op;
  extrapolate : op;
  hash : op;
  equal_zone : op;
  freeze : op;
  freeze_into : op;
  minimize : op;
  subsume : op;
  sat : op;
  other : op;  (* persistent hash/equal/copy_into of the commit path *)
  mutable dim_max : int;
}

let stats =
  {
    load = op ();
    constrain = op ();
    reset = op ();
    free = op ();
    up = op ();
    is_empty = op ();
    extrapolate = op ();
    hash = op ();
    equal_zone = op ();
    freeze = op ();
    freeze_into = op ();
    minimize = op ();
    subsume = op ();
    sat = op ();
    other = op ();
    dim_max = 0;
  }

let all_ops s =
  [ s.load; s.constrain; s.reset; s.free; s.up; s.is_empty; s.extrapolate;
    s.hash; s.equal_zone; s.freeze; s.freeze_into; s.minimize; s.subsume;
    s.sat; s.other ]

let reset_stats () =
  List.iter (fun o -> o.calls <- 0; o.ns <- 0) (all_ops stats);
  stats.dim_max <- 0

let sum ops =
  List.fold_left (fun (c, n) o -> (c + o.calls, n + o.ns)) (0, 0) ops

let succ_ops s = [ s.load; s.constrain; s.reset; s.free; s.up; s.is_empty ]
let intern_ops s = [ s.hash; s.equal_zone; s.freeze; s.freeze_into; s.other ]

let total_ns () = snd (sum (all_ops stats))

let[@inline] tick o t0 =
  o.ns <- o.ns + (now_ns () - t0);
  o.calls <- o.calls + 1

module Traced (K : Tm_zones.Dbm_sig.S) : Tm_zones.Dbm_sig.S with type t = K.t =
struct
  include K

  let hash z =
    let t0 = now_ns () in
    let r = K.hash z in
    tick stats.other t0;
    r

  let equal a b =
    let t0 = now_ns () in
    let r = K.equal a b in
    tick stats.other t0;
    r

  let sat z i j b =
    let t0 = now_ns () in
    let r = K.sat z i j b in
    tick stats.sat t0;
    r

  let copy_into a z =
    let t0 = now_ns () in
    let r = K.copy_into a z in
    tick stats.other t0;
    r

  module Min = struct
    include K.Min

    let of_zone z =
      let t0 = now_ns () in
      let r = K.Min.of_zone z in
      tick stats.minimize t0;
      r

    let subsumes m z =
      let t0 = now_ns () in
      let r = K.Min.subsumes m z in
      tick stats.subsume t0;
      r
  end

  module Scratch = struct
    include K.Scratch

    let create n =
      if n > stats.dim_max then stats.dim_max <- n;
      K.Scratch.create n

    let load s z =
      let t0 = now_ns () in
      K.Scratch.load s z;
      tick stats.load t0

    let constrain s i j b =
      let t0 = now_ns () in
      K.Scratch.constrain s i j b;
      tick stats.constrain t0

    let up s =
      let t0 = now_ns () in
      K.Scratch.up s;
      tick stats.up t0

    let reset s x =
      let t0 = now_ns () in
      K.Scratch.reset s x;
      tick stats.reset t0

    let free s x =
      let t0 = now_ns () in
      K.Scratch.free s x;
      tick stats.free t0

    let extrapolate mc s =
      let t0 = now_ns () in
      K.Scratch.extrapolate mc s;
      tick stats.extrapolate t0

    let extrapolate_lu ~lower ~upper s =
      let t0 = now_ns () in
      K.Scratch.extrapolate_lu ~lower ~upper s;
      tick stats.extrapolate t0

    let is_empty s =
      let t0 = now_ns () in
      let r = K.Scratch.is_empty s in
      tick stats.is_empty t0;
      r

    let sat s i j b =
      let t0 = now_ns () in
      let r = K.Scratch.sat s i j b in
      tick stats.sat t0;
      r

    let freeze s =
      let t0 = now_ns () in
      let r = K.Scratch.freeze s in
      tick stats.freeze t0;
      r

    let hash s =
      let t0 = now_ns () in
      let r = K.Scratch.hash s in
      tick stats.hash t0;
      r

    let equal_zone s z =
      let t0 = now_ns () in
      let r = K.Scratch.equal_zone s z in
      tick stats.equal_zone t0;
      r

    let freeze_into ?hash a s =
      let t0 = now_ns () in
      let r = K.Scratch.freeze_into ?hash a s in
      tick stats.freeze_into t0;
      r
  end
end

module Int = Reach.Make (Traced (Tm_zones.Dbm_int))
module Rat = Reach.Make (Traced (Tm_zones.Dbm))

(* Calls dispatched to the rational kernel (margin's non-integral
   mediant probes land here). *)
let rational_calls = ref 0

(* [Reach.Auto]'s rule, restated over the public [Boundmap] and
   [Condition] accessors. *)
let integral_cond (c : _ Condition.t) =
  Rational.is_integer (Interval.lo c.Condition.bounds)
  &&
  match Interval.hi c.Condition.bounds with
  | Time.Fin q -> Rational.is_integer q
  | Time.Inf -> true

let pick integral : (module Reach.S) =
  if integral then (module Int)
  else begin
    incr rational_calls;
    (module Rat)
  end

module Auto : Reach.S = struct
  let reachable ?limit ?deadline_s ?domains ?checkpoint ?resume a bm =
    let (module E : Reach.S) = pick (Boundmap.is_integral bm) in
    E.reachable ?limit ?deadline_s ?domains ?checkpoint ?resume a bm

  let check_state_invariant ?limit ?deadline_s ?domains ?checkpoint ?resume a
      bm pred =
    let (module E : Reach.S) = pick (Boundmap.is_integral bm) in
    E.check_state_invariant ?limit ?deadline_s ?domains ?checkpoint ?resume a
      bm pred

  let check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume a bm c =
    let (module E : Reach.S) =
      pick (Boundmap.is_integral bm && integral_cond c)
    in
    E.check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume a bm c

  let fingerprint_reachable a bm =
    let (module E : Reach.S) = pick (Boundmap.is_integral bm) in
    E.fingerprint_reachable a bm

  let fingerprint_invariant a bm =
    let (module E : Reach.S) = pick (Boundmap.is_integral bm) in
    E.fingerprint_invariant a bm

  let fingerprint_condition a bm c =
    let (module E : Reach.S) =
      pick (Boundmap.is_integral bm && integral_cond c)
    in
    E.fingerprint_condition a bm c
end
