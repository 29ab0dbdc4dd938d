module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Hstore = Tm_base.Hstore
module Ioa = Tm_ioa.Ioa
module Boundmap = Tm_timed.Boundmap
module Condition = Tm_timed.Condition
module Metrics = Tm_obs.Metrics
module Tracing = Tm_obs.Tracing
module Events = Tm_obs.Events
module Json = Tm_obs.Json
module Log = Tm_obs.Log
module Pool = Tm_par.Pool
module Snapshot = Tm_recover.Snapshot
module Supervisor = Tm_recover.Supervisor

(* Counter handles are shared by every engine instantiation, so the
   fast and reference engines report into the same metrics. *)
let c_zones_stored = Metrics.counter "zones.stored"
let c_zones_subsumed = Metrics.counter "zones.subsumed"
let c_zone_edges = Metrics.counter "zones.edges"
let c_zones_pruned_waiting = Metrics.counter "zones.pruned_waiting"
let c_zones_interned = Metrics.counter "zones.interned"
let g_waiting_max = Metrics.gauge "zones.waiting_max"

let c_budget_states =
  Metrics.counter "zones.budget_exhausted" ~labels:[ ("kind", "states") ]

let c_budget_deadline =
  Metrics.counter "zones.budget_exhausted" ~labels:[ ("kind", "deadline") ]

let c_resumed = Metrics.counter "recover.resumed"
let c_interrupted = Metrics.counter "recover.interrupted"

type stats = { locations : int; zones : int; edges : int }

type exhausted = {
  reason : string;
  partial : stats;
  checkpoint : string option;
}

type outcome =
  | Verified of stats
  | Lower_violation of stats
  | Upper_violation of stats
  | Unknown of exhausted
  | Unsupported of string

exception Open_system = Clock_enc.Open_system
exception Out_of_budget of exhausted

type phase = Idle | Armed

(* The no-op observer shared by [reachable] and [check_state_invariant]:
   phases never change and the observer clock is untouched.  The result
   values are preallocated — this runs once per explored edge. *)
let keep_idle = Ok (Idle, `Keep)
let keep_armed = Ok (Armed, `Keep)

let keep_phase p _ _ _ ~sat:_ =
  match p with Idle -> keep_idle | Armed -> keep_armed

(* LU extrapolation is the default widening; TM_NO_LU=1 falls back to
   classic max-constant extrapolation — the escape hatch CI uses to
   keep the non-LU path covered, and the toggle the metamorphic
   soundness tests flip.  Read per encoding, so one process can build
   both modes in sequence. *)
let lu_disabled () =
  match Sys.getenv_opt "TM_NO_LU" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

module type S = sig
  val reachable :
    ?limit:int -> ?deadline_s:float -> ?domains:int ->
    ?checkpoint:string * int -> ?resume:string ->
    ('s, 'a) Ioa.t -> Boundmap.t -> stats * 's list

  val check_state_invariant :
    ?limit:int -> ?deadline_s:float -> ?domains:int ->
    ?checkpoint:string * int -> ?resume:string ->
    ('s, 'a) Ioa.t -> Boundmap.t -> ('s -> bool) -> (stats, 's) result

  val check_condition :
    ?limit:int -> ?deadline_s:float -> ?domains:int ->
    ?checkpoint:string * int -> ?resume:string ->
    ('s, 'a) Ioa.t -> Boundmap.t -> ('s, 'a) Condition.t -> outcome

  val fingerprint_reachable : ('s, 'a) Ioa.t -> Boundmap.t -> string

  val fingerprint_invariant : ('s, 'a) Ioa.t -> Boundmap.t -> string

  val fingerprint_condition :
    ('s, 'a) Ioa.t -> Boundmap.t -> ('s, 'a) Condition.t -> string
end

(* The exploration discipline — waiting-list policy, subsumption,
   caches, metrics — lives in this functor and is therefore shared by
   the fast engine and the reference engine; only the DBM arithmetic
   differs.  That makes [zones.stored] identical across kernels by
   construction, which the CI determinism guard and the differential
   harness both rely on. *)
module Make (K : Dbm_sig.S) : S = struct
  (* The zone engine's view of the encoding.  Every discrete location
     gets its own clocks (its {!layout}): clock 0 is the reference, the
     observer clock (when there is one) sits at the fixed index 1, and
     the location's enabled classes follow in class-index order.  A
     class that is not enabled has [Ft = 0] and [Lt = inf] in
     time(A,b), so it carries no timing information and gets no clock.
     Guards, invariants and LU bounds are precomputed per class so the
     per-edge pipeline does no boundmap lookups and allocates no bound
     values. *)
  type ('s, 'a) enc = {
    cenc : ('s, 'a) Clock_enc.t;
    observer : (Rational.t option * Rational.t option) option;
        (** the observer clock's LU bounds, when there is one *)
    first : int;  (** the first class clock: 1, or 2 behind the observer *)
    max_const : Rational.t;
    guards : ('a * Dbm_bound.t option * int) array;
        (** per action: guard bound [Le (-b_l)] on its class's clock,
            and the class index ([-1] when classless) *)
    uppers : Dbm_bound.t option array;
        (** per class index: invariant bound [Le b_u] when finite *)
    lu : bool;
        (** LU widening over each layout's bounds; [false] falls back to
            max-constant widening *)
    class_lu : (Rational.t option * Rational.t option) array;
        (** per class index: its clock's LU bounds *)
  }

  (* The observer clock's fixed DBM index. *)
  let y = 1

  (* A condition check ([cond_bounds] given) adds the observer clock. *)
  let make_enc a bm ~cond_bounds =
    let cenc = Clock_enc.make a bm in
    let max_const =
      match cond_bounds with
      | None -> cenc.Clock_enc.max_const
      | Some iv -> (
          let m = Rational.max cenc.Clock_enc.max_const (Interval.lo iv) in
          match Interval.hi iv with
          | Time.Fin q -> Rational.max m q
          | Time.Inf -> m)
    in
    let guards =
      Array.of_list
        (List.map
           (fun act ->
             let g =
               match Clock_enc.guard cenc act with
               | None -> None
               | Some (_, bl) -> Some (Dbm_bound.Le (Rational.neg bl))
             in
             let ci =
               match Clock_enc.class_index cenc act with
               | Some i -> i
               | None -> -1
             in
             (act, g, ci))
           a.Ioa.alphabet)
    in
    let uppers =
      Array.map
        (fun c ->
          match Boundmap.upper bm c with
          | Time.Fin q -> Some (Dbm_bound.Le q)
          | Time.Inf -> None)
        cenc.Clock_enc.classes
    in
    (* L(x) / U(x) must dominate every constant the exploration ever
       compares clock x against.  Class clocks only meet their guard
       (x >= b_l, a lower comparison) and their invariant (x <= b_u, an
       upper comparison) — {!Boundmap.lu_bounds}.  The observer clock is
       only met by the condition probes, and those INVERT: [y < b_l] is
       an upper-type comparison (so b_l feeds U(y)) and [y > b_u] is a
       lower-type one (so b_u feeds L(y)).  A clock with no comparison
       on a side keeps [None] (-inf) there, which wipes the
       corresponding entries. *)
    let observer =
      match cond_bounds with
      | Some iv ->
          let bl = Interval.lo iv in
          Some
            ( (match Interval.hi iv with
              | Time.Fin q -> Some q
              | Time.Inf -> None),
              if Rational.sign bl > 0 then Some bl else None )
      | None -> None
    in
    {
      cenc;
      observer;
      first = (if observer = None then 1 else 2);
      max_const;
      guards;
      uppers;
      lu = not (lu_disabled ());
      class_lu = Array.map (Boundmap.lu_bounds bm) cenc.Clock_enc.classes;
    }

  (* One discrete location's clocks.  Locations with the same enabled
     classes share one layout, and with it the physical identity of the
     LU arrays the kernels cache their thresholds under. *)
  type layout = {
    dim : int;  (** DBM dimension *)
    slot : int array;
        (** per class index: its DBM clock, [0] when the class is not
            enabled — the value a remap reads as "reset to 0" *)
    cls : int array;  (** per DBM clock from [first]: its class index *)
    lower : Rational.t option array;
    upper : Rational.t option array;  (** per DBM clock LU bounds *)
  }

  let make_layout enc (v : bool array) =
    let dim =
      Array.fold_left (fun k on -> if on then k + 1 else k) enc.first v
    in
    let slot = Array.make (Array.length v) 0 in
    let cls = Array.make dim (-1) in
    let lower = Array.make dim None and upper = Array.make dim None in
    lower.(0) <- Some Rational.zero;
    upper.(0) <- Some Rational.zero;
    (match enc.observer with
    | Some (l, u) ->
        lower.(y) <- l;
        upper.(y) <- u
    | None -> ());
    let k = ref enc.first in
    Array.iteri
      (fun c on ->
        if on then begin
          slot.(c) <- !k;
          cls.(!k) <- c;
          lower.(!k) <- fst enc.class_lu.(c);
          upper.(!k) <- snd enc.class_lu.(c);
          incr k
        end)
      v;
    { dim; slot; cls; lower; upper }

  (* The job fingerprint ties a checkpoint to the run shape that wrote
     it: kernel, entry point, and the whole timing side of the encoding
     (class bounds, max constant, alphabet size, class count).  [tmjob2]
     marks snapshots whose zones are sized by their location's layout.
     It cannot observe the automaton's transition function — that is
     re-supplied at resume (closures do not marshal) and trusted to be
     the same program calling again. *)
  let fingerprint_of ~kind bm (enc : _ enc) =
    Format.asprintf
      "tmjob2|kernel=%s|widen=%s|kind=%s|nclasses=%d|maxc=%a|alpha=%d|%a"
      K.name
      (if enc.lu then "lu" else "maxc")
      kind enc.cenc.Clock_enc.nclasses Rational.pp enc.max_const
      (Array.length enc.guards)
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_char f ',')
         (fun f (c, iv) -> Format.fprintf f "%s:%a" c Interval.pp iv))
      (Boundmap.to_list bm)

  let cond_kind (c : _ Condition.t) =
    Format.asprintf "condition:%s:%a" c.Condition.cname Interval.pp
      c.Condition.bounds

  let fingerprint_reachable a bm =
    fingerprint_of ~kind:"reachable" bm (make_enc a bm ~cond_bounds:None)

  let fingerprint_invariant a bm =
    fingerprint_of ~kind:"invariant" bm (make_enc a bm ~cond_bounds:None)

  let fingerprint_condition a bm c =
    fingerprint_of ~kind:(cond_kind c) bm
      (make_enc a bm ~cond_bounds:(Some c.Condition.bounds))

  (* A stored zone doubling as a waiting-list entry.  [alive] is
     cleared when a later, larger zone at the same location subsumes
     it; [expanded] distinguishes passed-list members from entries
     pruned while still waiting (the [zones.pruned_waiting] signal).
     [zmin] is the minimal-constraint form of [z], computed once at
     store time: both subsumption directions probe it in O(kept
     constraints) instead of scanning the full n² matrix. *)
  type zentry = {
    z : K.t;
    zmin : K.Min.min;
    zloose : int;
    seq : int;
    mutable alive : bool;
    mutable expanded : bool;
  }

  (* Checkpoint payload: the whole search frontier at a batch boundary.
     Zones and waiting-list entries are plain data ([K.t] carries no
     closures), and one [Marshal] call preserves the sharing between
     [p_cells] and [p_pending], so pending entries come back as the
     same records as their cell copies.  States must themselves be
     marshalable — true of every system in this repository.  Counter
     deltas are this job's contribution to the shared metrics, replayed
     with [Metrics.add] at resume so a resumed run's totals equal an
     uninterrupted one's. *)
  type 's snap = {
    p_keys : ('s * phase) array;  (** store keys in id order *)
    p_cells : (int * zentry list) array;
    p_pending : (int * zentry list) array;
    p_locq : int array;
    p_edges : int;
    p_zones : int;
    p_seq : int;
    p_subsumed_d : int;
    p_pruned_d : int;
    p_interned_d : int;
    p_waiting_max : float;
  }

  (* ---------------- the successor step ---------------- *)

  (* The scratches of one DBM dimension: [src] holds a loaded source
     zone under its guard (and [sat] probes it, built once so the
     per-edge [observe] call allocates no closure); [dst] receives the
     remap onto a target layout of this dimension, through the reusable
     slot map [map]. *)
  type dim_scr = {
    src : K.Scratch.scratch;
    sat : int -> int -> Dbm_bound.t -> bool;
    dst : K.Scratch.scratch;
    map : int array;
  }

  (* One expansion context: the scratches of each dimension met so far,
     a bump arena for speculated zones, and a per-state cache of the
     location's layout (its own Hstore, so the single-domain owner
     assertion holds), with the layouts themselves shared by
     enabled-vector content.  Context [d] belongs to pool domain [d].
     Context 0 is the main domain's: it seeds the search, runs the
     sequential path, and is domain 0 of [Pool.parallel_for].  Every
     context, and every scratch in it, is created lazily by the domain
     that uses it. *)
  type 's ctx = {
    scrs : dim_scr option array;  (** indexed by dimension *)
    spec : K.Arena.arena;
        (** speculated zones freeze here; rewound at the end of every
            batch, after the commit loop has copied the survivors into
            the main arena *)
    loc_ids : 's Hstore.t;
    locs : (int, layout) Hashtbl.t;  (** per [loc_ids] id *)
    layouts : (string, layout) Hashtbl.t;  (** per enabled vector *)
  }

  let make_ctx (enc : ('s, _) enc) =
    let a = enc.cenc.Clock_enc.aut in
    {
      scrs = Array.make (enc.cenc.Clock_enc.nclasses + enc.first + 1) None;
      spec = K.Arena.create ();
      loc_ids =
        Hstore.create ~equal:a.Ioa.equal_state ~hash:a.Ioa.hash_state 64;
      locs = Hashtbl.create 64;
      layouts = Hashtbl.create 16;
    }

  (* The scratches of one dimension, created on first use.  The slot
     map's fixed entries are set once: the reference clock copies the
     reference clock, and the observer clock copies the observer
     clock. *)
  let scr enc ctx dim =
    match ctx.scrs.(dim) with
    | Some d -> d
    | None ->
        let src = K.Scratch.create dim in
        let map = Array.make dim 0 in
        if enc.first > y then map.(y) <- y;
        let d =
          {
            src;
            sat = (fun i j b -> K.Scratch.sat src i j b);
            dst = K.Scratch.create dim;
            map;
          }
        in
        ctx.scrs.(dim) <- Some d;
        d

  let layout enc ctx s =
    let id = match Hstore.add ctx.loc_ids s with `Added i | `Present i -> i in
    match Hashtbl.find_opt ctx.locs id with
    | Some l -> l
    | None ->
        let v = Clock_enc.enabled_vec enc.cenc s in
        let key =
          String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')
        in
        let l =
          match Hashtbl.find_opt ctx.layouts key with
          | Some l -> l
          | None ->
              let l = make_layout enc v in
              Hashtbl.add ctx.layouts key l;
              l
        in
        Hashtbl.add ctx.locs id l;
        l

  (* Load a source zone into its dimension's scratch and apply an
     action's guard: is the guarded zone nonempty?  An action only has
     successors when its class is enabled, so its clock has a slot. *)
  let guard d (pre : layout) z gopt ci =
    K.Scratch.load d.src z;
    (match gopt with
    | None -> ()
    | Some b -> K.Scratch.constrain d.src 0 pre.slot.(ci) b);
    not (K.Scratch.is_empty d.src)

  (* The closure step of time(A,b) on a target scratch that already
     holds the successor's clocks: the observer clock takes [y_op]; time
     passes; the [Lt] invariants of the enabled classes are imposed; and
     the result is widened — LU extrapolation over the layout's bounds
     by default, classic max-constant when disabled.  Is the successor
     nonempty? *)
  let finish enc scr (post : layout) y_op =
    (if enc.first > y then
       match y_op with
       | `Reset -> K.Scratch.reset scr y
       | `Free -> K.Scratch.free scr y
       | `Keep -> ());
    K.Scratch.up scr;
    for k = enc.first to post.dim - 1 do
      match enc.uppers.(post.cls.(k)) with
      | Some b -> K.Scratch.constrain scr k 0 b
      | None -> ()
    done;
    if enc.lu then
      K.Scratch.extrapolate_lu ~lower:post.lower ~upper:post.upper scr
    else K.Scratch.extrapolate enc.max_const scr;
    not (K.Scratch.is_empty scr)

  (* One edge from the guard-constrained source scratch [src] (layout
     [pre]) to layout [post]: remap onto the target's clocks — a class
     keeps its clock when it stays enabled and did not fire ([ci]);
     the fired class and newly enabled ones start at 0; disabled ones
     are dropped — then [finish].  Every zone the engine makes comes
     out of [finish]: the sequential path, the speculative workers and
     the initial zones, so [zones.stored] stays identical by
     construction whatever the kernel or domain count.  [d] holds the
     scratches of [post]'s dimension; the successor lands in [d.dst]. *)
  let step enc d ~src ~(pre : layout) ~(post : layout) ~ci y_op =
    let map = d.map in
    for k = enc.first to post.dim - 1 do
      let c = post.cls.(k) in
      map.(k) <- (if c = ci then 0 else pre.slot.(c))
    done;
    K.Scratch.remap ~src map ~dst:d.dst;
    finish enc d.dst post y_op

  (* ---------------- the frontier ---------------- *)

  (* One exploration: the job it runs (encoding, callbacks, budgets,
     checkpoint policy) and its whole search state.  At a batch
     boundary the frontier is exactly [cells]/[pending]/[locq]; the
     unfinished tail of the batch being drained ([batch_left], at
     location [batch_loc]) is nonempty only when a mid-batch deadline
     fires, and the final snapshot folds it back in.

     [observe] sees each discrete step plus a satisfiability query on
     the guard-constrained successor zone and returns the observer
     phase transition and the operation on the observer clock
     ([`Reset], [`Free] while it is not being read, or [`Keep]).
     [inspect] sees every stored (phase, state, zone). *)
  type ('s, 'a) frontier = {
    enc : ('s, 'a) enc;
    observe :
      phase -> 's -> 'a -> 's -> sat:(int -> int -> Dbm_bound.t -> bool) ->
      (phase * [ `Reset | `Free | `Keep ], string) result;
    inspect : phase -> 's -> K.t -> unit;
    limit : int;
    deadline_s : float option;
    deadline : float option;  (** absolute wall clock *)
    pool : Pool.t option;
    checkpoint : (string * int) option;
    resume : string option;
    fp : string;
    store : ('s * phase) Hstore.t;  (** location ids *)
    zstore : K.t Hstore.t;
        (** hash-consed zones: structurally equal zones are one pointer,
            so inclusion checks start with a physical-equality hit *)
    arena : K.Arena.arena;
        (** every stored zone's payload; never reset *)
    cells : (int, zentry list ref) Hashtbl.t;
        (** passed + waiting zones per location id *)
    pending : (int, zentry list ref) Hashtbl.t;
        (** the waiting list: per-location buckets drained in FIFO
            location order ([locq]), largest zone first *)
    locq : int Queue.t;
        (** a location is queued iff it has a [pending] bucket *)
    ctxs : 's ctx option array;  (** per pool domain *)
    mutable edges : int;
    mutable zones : int;
    mutable waiting : int;
    mutable last_seq : int;
    base_subsumed : int;
    base_pruned : int;
    base_interned : int;
        (** this job's baseline of the shared counters, taken before any
            restore: [value - base] is the delta a snapshot carries *)
    mutable batch_loc : int;
    mutable batch_left : zentry list;
    mutable wrote_snapshot : bool;
    mutable last_snap : int;
    t_start : float;
    mutable last_emit : float;
  }

  (* [observe] and [inspect] end a run with an answer by raising
     [Answer] around an exception of their own; [Unsupported_shape] is
     the engine's.  Any other exception is a crash. *)
  exception Answer of exn
  exception Unsupported_shape of string
  exception Budget of [ `States | `Deadline | `Interrupt ]

  let telemetry_on () = Events.enabled () || Events.progress_enabled ()

  let stats fr =
    { locations = Hstore.length fr.store; zones = fr.zones; edges = fr.edges }

  let ctx fr d =
    match fr.ctxs.(d) with
    | Some c -> c
    | None ->
        let c = make_ctx fr.enc in
        fr.ctxs.(d) <- Some c;
        c

  (* Probed at every batch boundary and before every successor, so a
     single expensive pipeline cannot overshoot by more than one zone
     expansion. *)
  let check_deadline fr =
    match fr.deadline with
    | Some t when Tracing.now_s () > t -> raise (Budget `Deadline)
    | Some _ | None -> ()

  let count_edge fr =
    fr.edges <- fr.edges + 1;
    Metrics.incr c_zone_edges;
    check_deadline fr

  let bucket tbl id =
    match Hashtbl.find_opt tbl id with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.add tbl id c;
        c

  (* Store one already-interned zone: subsumption (both directions
     through the minimal-constraint forms), storing, inspection,
     queueing.  All callers run on the main domain in sequential commit
     order, so everything here is deterministic at any domain count. *)
  let add_interned fr s p z =
    let id = match Hstore.add fr.store (s, p) with `Added i | `Present i -> i in
    let cell = bucket fr.cells id in
    if List.exists (fun e -> K.Min.subsumes e.zmin z) !cell then
      Metrics.incr c_zones_subsumed
    else begin
      let zmin = K.Min.of_zone z in
      cell :=
        List.filter
          (fun e ->
            if K.Min.subsumes zmin e.z then begin
              e.alive <- false;
              if not e.expanded then Metrics.incr c_zones_pruned_waiting;
              false
            end
            else true)
          !cell;
      fr.last_seq <- fr.last_seq + 1;
      let e =
        {
          z;
          zmin;
          zloose = K.loose z;
          seq = fr.last_seq;
          alive = true;
          expanded = false;
        }
      in
      cell := e :: !cell;
      fr.zones <- fr.zones + 1;
      Metrics.incr c_zones_stored;
      fr.inspect p s z;
      if not (Hashtbl.mem fr.pending id) then Queue.add id fr.locq;
      let waiting = bucket fr.pending id in
      waiting := e :: !waiting;
      fr.waiting <- fr.waiting + 1;
      Metrics.set_max g_waiting_max (float_of_int fr.waiting)
    end

  (* Intern a candidate zone, then store it.  The candidate is probed
     through [hash]/[equal] wherever it lives (the sequential scratch, or
     a worker's arena); only a genuine miss runs [freeze], which puts
     exactly one copy into the main arena. *)
  let intern_store fr ~hash ~equal ~freeze s p =
    match Hstore.intern_scratch fr.zstore ~hash ~equal ~freeze with
    | `Hit z ->
        Metrics.incr c_zones_interned;
        add_interned fr s p z
    | `Miss z -> add_interned fr s p z

  (* Sequential path and seeding: store a surviving successor straight
     from the main context's target scratch — a hit never copies the
     matrix at all. *)
  let store_scratch fr scr s p =
    let h = K.Scratch.hash scr in
    intern_store fr ~hash:h ~equal:(K.Scratch.equal_zone scr)
      ~freeze:(fun () -> K.Scratch.freeze_into ~hash:h fr.arena scr)
      s p

  (* ---------------- telemetry ---------------- *)

  (* Observation-only: reads the frontier's counters and never
     influences what gets explored, so verdicts and [zones.stored] are
     byte-identical with telemetry on or off.  With neither an event
     sink nor the progress line active, the per-batch cost is two flag
     reads and no clock access. *)
  let emit_telemetry ?(force = false) ?(ev = "zones.batch") fr =
    if telemetry_on () then begin
      let now = Tracing.now_s () in
      if force || now -. fr.last_emit >= 0.05 then begin
        fr.last_emit <- now;
        let elapsed = now -. fr.t_start in
        let rate =
          if elapsed > 0. then float_of_int fr.zones /. elapsed else 0.
        in
        if Events.enabled () then begin
          let queues =
            match fr.pool with
            | Some pl when Pool.size pl > 1 ->
                let depths = Array.to_list (Pool.queue_depths pl) in
                [ ("queues", Json.List (List.map (fun d -> Json.Int d) depths)) ]
            | Some _ | None -> []
          in
          Events.emit ev
            ([
               ("stored", Json.Int fr.zones);
               ("frontier", Json.Int fr.waiting);
               ("locations", Json.Int (Hstore.length fr.store));
               ("edges", Json.Int fr.edges);
               ( "subsumed",
                 Json.Int (Metrics.value c_zones_subsumed - fr.base_subsumed) );
               ( "pruned",
                 Json.Int
                   (Metrics.value c_zones_pruned_waiting - fr.base_pruned) );
               ("rate", Json.Float rate);
             ]
            @ queues)
        end;
        let eta_s =
          (* ETA toward whichever budget will end the run first: the
             wall-clock deadline, or the state budget at the current
             rate. *)
          match fr.deadline with
          | Some t -> Some (Float.max 0. (t -. now))
          | None ->
              if rate > 0. then
                Some (float_of_int (max 0 (fr.limit - fr.zones)) /. rate)
              else None
        in
        Events.progress ?eta_s ~stored:fr.zones ~frontier:fr.waiting ~rate ()
      end
    end

  (* ---------------- checkpoints ---------------- *)

  let save_snapshot (type s) (fr : (s, _) frontier) =
    match fr.checkpoint with
    | None -> None
    | Some (path, _) ->
        Tracing.with_span "recover.snapshot" @@ fun () ->
        let to_list tbl =
          List.of_seq (Seq.map (fun (id, es) -> (id, !es)) (Hashtbl.to_seq tbl))
        in
        let pending = to_list fr.pending in
        (* Fold the unfinished batch tail back into the frontier. *)
        let pending, q_extra =
          match fr.batch_left with
          | [] -> (pending, [])
          | tail ->
              let id = fr.batch_loc in
              let merged =
                match List.assoc_opt id pending with
                | Some es -> (id, tail @ es) :: List.remove_assoc id pending
                | None -> (id, tail) :: pending
              in
              (merged, if Hashtbl.mem fr.pending id then [] else [ id ])
        in
        let snap =
          {
            p_keys =
              Array.init (Hstore.length fr.store) (Hstore.key_of_id fr.store);
            p_cells = Array.of_list (to_list fr.cells);
            p_pending = Array.of_list pending;
            p_locq =
              Array.of_list (q_extra @ List.of_seq (Queue.to_seq fr.locq));
            p_edges = fr.edges;
            p_zones = fr.zones;
            p_seq = fr.last_seq;
            p_subsumed_d = Metrics.value c_zones_subsumed - fr.base_subsumed;
            p_pruned_d = Metrics.value c_zones_pruned_waiting - fr.base_pruned;
            p_interned_d = Metrics.value c_zones_interned - fr.base_interned;
            p_waiting_max = Metrics.gauge_value g_waiting_max;
          }
        in
        let info =
          Printf.sprintf "zones=%d locations=%d edges=%d" fr.zones
            (Hstore.length fr.store) fr.edges
        in
        Snapshot.write ~path ~fingerprint:fr.fp ~info
          (Marshal.to_bytes (snap : s snap) []);
        fr.wrote_snapshot <- true;
        fr.last_snap <- fr.zones;
        Some path

  let restore (type s) (fr : (s, _) frontier) path =
    let fp_got, info, payload = Snapshot.read path in
    if fp_got <> fr.fp then
      raise
        (Snapshot.Bad_snapshot
           (Printf.sprintf
              "%s: snapshot belongs to a different job\n\
              \  snapshot: %s\n\
              \  this run: %s" path fp_got fr.fp));
    let snap = (Marshal.from_bytes payload 0 : s snap) in
    (* Dense Hstore ids are assigned in insertion order, so re-adding
       the keys in id order reproduces every id exactly. *)
    Array.iter (fun k -> ignore (Hstore.add fr.store k)) snap.p_keys;
    Array.iter
      (fun (id, es) ->
        Hashtbl.replace fr.cells id (ref es);
        (* Re-seed the hash-consing store.  Marshal preserved the
           sharing among stored zones, so structurally equal zones are
           still one pointer and each distinct zone is interned once. *)
        List.iter (fun e -> ignore (Hstore.intern fr.zstore e.z)) es)
      snap.p_cells;
    Array.iter
      (fun (id, es) -> Hashtbl.replace fr.pending id (ref es))
      snap.p_pending;
    Array.iter (fun id -> Queue.add id fr.locq) snap.p_locq;
    fr.edges <- snap.p_edges;
    fr.zones <- snap.p_zones;
    fr.last_seq <- snap.p_seq;
    fr.waiting <-
      Array.fold_left (fun n (_, es) -> n + List.length es) 0 snap.p_pending;
    fr.last_snap <- fr.zones;
    (* Replay this job's counter contribution so a resumed run's totals
       equal an uninterrupted one's. *)
    Metrics.add c_zones_stored snap.p_zones;
    Metrics.add c_zone_edges snap.p_edges;
    Metrics.add c_zones_subsumed snap.p_subsumed_d;
    Metrics.add c_zones_pruned_waiting snap.p_pruned_d;
    Metrics.add c_zones_interned snap.p_interned_d;
    Metrics.set_max g_waiting_max snap.p_waiting_max;
    Metrics.incr c_resumed;
    Events.emit "recover.resume"
      [
        ("path", Json.String path);
        ("zones", Json.Int fr.zones);
        ("edges", Json.Int fr.edges);
        ("info", Json.String info);
      ];
    Log.info "resumed from %s (%s)" path info

  (* Batch-boundary discipline: deterministic budget, cooperative
     interrupt, periodic snapshot — in that order, so an exhausted run
     never first spends time snapshotting. *)
  let boundary_checks fr =
    if fr.zones > fr.limit then raise (Budget `States);
    if Supervisor.interrupt_requested () then raise (Budget `Interrupt);
    match fr.checkpoint with
    | Some (_, every) when every > 0 && fr.zones - fr.last_snap >= every ->
        ignore (save_snapshot fr)
    | _ -> ()

  (* A run that ended with an answer — a fixpoint, a violation, an
     unsupported shape — leaves no frontier worth resuming, so its
     checkpoint goes: the periodic one this run wrote, or the one it
     resumed from when that doubles as the checkpoint path.  A file at
     the checkpoint path this run neither wrote nor consumed is someone
     else's and stays.  A budget, a deadline or an interrupt keeps the
     checkpoint to resume from, and so does a crash. *)
  let release_checkpoint fr =
    match fr.checkpoint with
    | Some (path, _) when fr.wrote_snapshot || fr.resume = Some path -> (
        try Sys.remove path with Sys_error _ -> ())
    | _ -> ()

  (* Exhaustion must never masquerade as a verdict: surface the partial
     stats so the caller can report how far the search got before the
     budget ran out — and leave a final snapshot behind so none of that
     work is lost. *)
  let exhaust fr kind =
    let checkpoint = save_snapshot fr in
    let partial = stats fr in
    let reason =
      match kind with
      | `States ->
          Metrics.incr c_budget_states;
          Printf.sprintf "zone budget exhausted (limit=%d stored zones)"
            fr.limit
      | `Deadline ->
          Metrics.incr c_budget_deadline;
          let d = match fr.deadline_s with Some d -> d | None -> 0. in
          Printf.sprintf "deadline exceeded (%.0f ms)" (d *. 1000.)
      | `Interrupt ->
          Metrics.incr c_interrupted;
          "interrupted (SIGINT/SIGTERM)"
    in
    emit_telemetry ~force:true ~ev:"zones.exhausted" fr;
    Events.emit "zones.budget"
      [
        ("reason", Json.String reason);
        ( "checkpoint",
          match checkpoint with Some p -> Json.String p | None -> Json.Null );
      ];
    Events.progress_clear ();
    { reason; partial; checkpoint }

  (* ---------------- expansion ---------------- *)

  let expand fr ctx s p pre z =
    let enc = fr.enc in
    let src = scr enc ctx pre.dim in
    Array.iter
      (fun (act, gopt, ci) ->
        List.iter
          (fun s' ->
            count_edge fr;
            if guard src pre z gopt ci then
              match fr.observe p s act s' ~sat:src.sat with
              | Error m -> raise (Answer (Unsupported_shape m))
              | Ok (p', y_op) ->
                  let post = layout enc ctx s' in
                  let d = scr enc ctx post.dim in
                  if step enc d ~src:src.src ~pre ~post ~ci y_op then
                    store_scratch fr d.dst s' p')
          (enc.cenc.Clock_enc.aut.Ioa.delta s act))
      enc.guards

  (* Parallel path: the successors of one (entry, guard) pair, computed
     on a worker domain's context and recorded instead of committed.
     Exceptions from [observe] (violation witnesses use local
     exceptions) are captured and re-raised at the commit point. *)
  let speculate fr ctx s p pre z (act, gopt, ci) =
    let enc = fr.enc in
    let src = scr enc ctx pre.dim in
    List.map
      (fun s' ->
        if not (guard src pre z gopt ci) then `Skip
        else
          match fr.observe p s act s' ~sat:src.sat with
          | exception ex -> `Raised ex
          | Error m -> `Unsup m
          | Ok (p', y_op) ->
              let post = layout enc ctx s' in
              let d = scr enc ctx post.dim in
              if step enc d ~src:src.src ~pre ~post ~ci y_op then
                `Succ (s', p', K.Scratch.freeze_into ctx.spec d.dst)
              else `Dead)
      (enc.cenc.Clock_enc.aut.Ioa.delta s act)

  (* Sequential-order replay of one speculated edge.  The speculated
     zone lives in its worker's arena: it is probed where it is, and
     only a genuine miss is copied into the main arena. *)
  let commit_edge fr out =
    count_edge fr;
    match out with
    | `Skip | `Dead -> ()
    | `Unsup m -> raise (Answer (Unsupported_shape m))
    | `Raised ex -> raise ex
    | `Succ (s', p', z) ->
        intern_store fr ~hash:(K.hash z)
          ~equal:(fun k -> K.equal k z)
          ~freeze:(fun () -> K.copy_into fr.arena z)
          s' p'

  (* Parallel path: speculate, one task per (entry, guard) pair, every
     entry of the batch alive at pop, and return the commit of one
     entry's outcomes.  Entries still alive at commit are a subsequence
     of those alive at pop, so a cursor finds each one's results. *)
  let speculate_batch fr pl s p pre batch =
    let alive = Array.of_list (List.filter (fun e -> e.alive) batch) in
    let guards = fr.enc.guards in
    let ng = Array.length guards in
    let ntasks = Array.length alive * ng in
    let res = Array.make (max ntasks 1) [] in
    Pool.parallel_for pl ~n:ntasks (fun ~domain t ->
        res.(t) <-
          speculate fr (ctx fr domain) s p pre alive.(t / ng).z
            guards.(t mod ng));
    let ai = ref 0 in
    fun e ->
      while alive.(!ai) != e do
        incr ai
      done;
      for gi = 0 to ng - 1 do
        List.iter (commit_edge fr) res.((!ai * ng) + gi)
      done

  (* Expand the pending batch of location [id], largest zone first:
     the biggest zone subsumes the most successors, so expanding it
     first maximizes pruning; the insertion sequence breaks ties for
     determinism.  Under a pool, aliveness is sampled twice: entries
     dead at pop get no tasks, and entries killed by an earlier commit
     of this very batch have their speculation discarded — exactly
     where the sequential path skips a dead entry. *)
  let expand_batch fr id =
    let batch =
      List.sort
        (fun e1 e2 ->
          if e1.zloose <> e2.zloose then compare e2.zloose e1.zloose
          else compare e1.seq e2.seq)
        !(Hashtbl.find fr.pending id)
    in
    Hashtbl.remove fr.pending id;
    let s, p = Hstore.key_of_id fr.store id in
    let ctx0 = ctx fr 0 in
    let pre = layout fr.enc ctx0 s in
    fr.batch_loc <- id;
    fr.batch_left <- batch;
    let expand_entry =
      match fr.pool with
      | Some pl when Pool.size pl > 1 -> speculate_batch fr pl s p pre batch
      | Some _ | None -> fun e -> expand fr ctx0 s p pre e.z
    in
    List.iter
      (fun e ->
        fr.waiting <- fr.waiting - 1;
        if e.alive then begin
          e.expanded <- true;
          expand_entry e
        end;
        fr.batch_left <- List.tl fr.batch_left)
      batch;
    (* Batch boundary: every committed zone was re-homed into the main
       arena, so whatever was speculated this batch is now discarded
       work — rewind the speculation arenas. *)
    Array.iter (function Some c -> K.Arena.reset c.spec | None -> ()) fr.ctxs

  (* The initial zones: every enabled class's clock at 0, the observer
     clock freed while idle, then [finish]. *)
  let seed fr ~initial_phase =
    let ctx0 = ctx fr 0 in
    List.iter
      (fun s0 ->
        let post = layout fr.enc ctx0 s0 in
        let d = scr fr.enc ctx0 post.dim in
        K.Scratch.load d.dst (K.zero post.dim);
        let p0 = initial_phase s0 in
        if finish fr.enc d.dst post (if p0 = Idle then `Free else `Keep) then
          store_scratch fr d.dst s0 p0)
      fr.enc.cenc.Clock_enc.aut.Ioa.start

  (* How one exploration ended. *)
  type ending = Fixpoint | Answered of exn | Exhausted of exhausted

  (* The sequential core.  Locations are drained in FIFO order, one
     batch of pending zones each, largest zone first.

     With a [pool] of size > 1 the engine runs speculate-then-commit
     per popped location batch: workers compute the pure successor
     pipelines of the batch in parallel on their own contexts, then the
     main domain replays the outcomes in exact sequential order — edge
     counting, observer probes, interning, subsumption, storing,
     queueing all happen at commit.  Every state-mutating decision is
     thus made in the sequential order, so verdicts, the reachable set,
     and every counter (including [zones.stored] and [zones.subsumed])
     are bit-identical to the sequential engine at any domain count.
     The only speculative waste is computing successors of entries that
     a same-batch commit prunes; their results are discarded exactly
     where the sequential engine would have skipped the dead entry.
     [observe] and the automaton's [delta] must be pure — they run on
     worker domains.

     Checkpointing discipline: snapshots, the (deterministic) zone
     budget, and cooperative interrupts all act only at batch
     boundaries — the top of the drain loop — where (under a pool)
     every worker has quiesced at the [parallel_for] commit barrier.
     That is what makes a resumed run replay the identical commit
     sequence.  The wall-clock deadline is the one check allowed to
     fire mid-batch; its final snapshot re-queues the unfinished
     remainder of the current batch, which keeps resumption sound
     (subsumption absorbs re-derived successors) at the cost of exact
     counter equality — the deadline is documented as
     non-deterministic anyway. *)
  let explore fr ~initial_phase =
    let drain () =
      (match fr.resume with
      | Some path -> restore fr path
      | None -> seed fr ~initial_phase);
      while
        boundary_checks fr;
        not (Queue.is_empty fr.locq)
      do
        check_deadline fr;
        emit_telemetry fr;
        expand_batch fr (Queue.pop fr.locq)
      done
    in
    match drain () with
    | () ->
        release_checkpoint fr;
        emit_telemetry ~force:true ~ev:"zones.done" fr;
        Events.progress_clear ();
        Fixpoint
    | exception Answer a ->
        release_checkpoint fr;
        Events.progress_clear ();
        Answered a
    | exception Budget kind -> Exhausted (exhaust fr kind)

  (* ---------------- entry points ---------------- *)

  let span_args domains =
    [ ("domains", string_of_int (max 1 (Option.value domains ~default:1))) ]

  (* The runner the three entry points share: fingerprint, pool, one
     exploration.  Returns the finished frontier with how it ended. *)
  let run ?(limit = 200_000) ?deadline_s ?domains ?checkpoint ?resume ~kind bm
      (enc : ('s, _) enc) ~initial_phase ~observe ~inspect =
    let fp = fingerprint_of ~kind bm enc in
    let a = enc.cenc.Clock_enc.aut in
    let go pool =
      let fr =
        {
          enc;
          observe;
          inspect;
          limit;
          deadline_s;
          deadline = Option.map (fun d -> Tracing.now_s () +. d) deadline_s;
          pool;
          checkpoint;
          resume;
          fp;
          store =
            Hstore.create
              ~equal:(fun (s1, p1) (s2, p2) ->
                p1 = p2 && a.Ioa.equal_state s1 s2)
              ~hash:(fun (s, p) ->
                (a.Ioa.hash_state s * 2) + match p with Idle -> 0 | Armed -> 1)
              256;
          zstore = Hstore.create ~equal:K.equal ~hash:K.hash 64;
          arena = K.Arena.create ();
          cells = Hashtbl.create 64;
          pending = Hashtbl.create 64;
          locq = Queue.create ();
          ctxs =
            Array.make (match pool with Some p -> Pool.size p | None -> 1) None;
          edges = 0;
          zones = 0;
          waiting = 0;
          last_seq = 0;
          base_subsumed = Metrics.value c_zones_subsumed;
          base_pruned = Metrics.value c_zones_pruned_waiting;
          base_interned = Metrics.value c_zones_interned;
          batch_loc = -1;
          batch_left = [];
          wrote_snapshot = false;
          last_snap = 0;
          t_start = (if telemetry_on () then Tracing.now_s () else 0.);
          last_emit = neg_infinity;
        }
      in
      (fr, explore fr ~initial_phase)
    in
    (* [?domains] scopes a pool around one exploration; [domains <= 1]
       (the default) never touches the pool machinery. *)
    match domains with
    | Some d when d > 1 -> Pool.run ~domains:d (fun p -> go (Some p))
    | Some _ | None -> go None

  let reachable ?limit ?deadline_s ?domains ?checkpoint ?resume
      (a : ('s, 'a) Ioa.t) bm =
    Tracing.with_span "zones.reachable" ~args:(span_args domains) @@ fun () ->
    let enc = make_enc a bm ~cond_bounds:None in
    match
      run ?limit ?deadline_s ?domains ?checkpoint ?resume ~kind:"reachable" bm
        enc ~initial_phase:(fun _ -> Idle) ~observe:keep_phase
        ~inspect:(fun _ _ _ -> ())
    with
    | fr, Fixpoint ->
        (* Every location's phase is [Idle] here, so the location store
           holds each reachable state once, in discovery order. *)
        ( stats fr,
          List.init (Hstore.length fr.store) (fun id ->
              fst (Hstore.key_of_id fr.store id)) )
    | _, Answered (Unsupported_shape m) -> raise (Open_system m)
    | _, Answered a -> raise a
    | _, Exhausted e -> raise (Out_of_budget e)

  let check_state_invariant (type s) ?limit ?deadline_s ?domains ?checkpoint
      ?resume (a : (s, _) Ioa.t) bm pred =
    Tracing.with_span "zones.check_state_invariant" ~args:(span_args domains)
    @@ fun () ->
    let enc = make_enc a bm ~cond_bounds:None in
    let exception Found of s in
    match
      run ?limit ?deadline_s ?domains ?checkpoint ?resume ~kind:"invariant" bm
        enc ~initial_phase:(fun _ -> Idle) ~observe:keep_phase
        ~inspect:(fun _ s _ -> if not (pred s) then raise (Answer (Found s)))
    with
    | fr, Fixpoint -> Ok (stats fr)
    | _, Answered (Found s) -> Error s
    | _, Answered (Unsupported_shape m) -> raise (Open_system m)
    | _, Answered a -> raise a
    | _, Exhausted e -> raise (Out_of_budget e)

  let check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume
      (a : ('s, 'a) Ioa.t) bm (c : ('s, 'a) Condition.t) =
    Tracing.with_span "zones.check_condition"
      ~args:(("cond", c.Condition.cname) :: span_args domains)
    @@ fun () ->
    let enc = make_enc a bm ~cond_bounds:(Some c.Condition.bounds) in
    let bl = Interval.lo c.Condition.bounds in
    let bu = Interval.hi c.Condition.bounds in
    let check_lower = Rational.sign bl > 0 in
    let lt_bl = Dbm_bound.Lt bl in
    let upper_probe =
      match bu with
      | Time.Fin q -> Some (Dbm_bound.Lt (Rational.neg q))
      | Time.Inf -> None
    in
    let exception Lower in
    let exception Upper in
    let observe p s act s' ~sat =
      let triggered = c.Condition.t_step s act s' in
      let pi = c.Condition.in_pi act in
      match p with
      | Armed when pi ->
          (* Occurrence: too early iff the zone admits y < b_l. *)
          if check_lower && sat y 0 lt_bl then raise (Answer Lower);
          if triggered then Ok (Armed, `Reset) else Ok (Idle, `Free)
      | Armed when triggered ->
          Error
            "trigger fired while armed with a non-Pi action (needs deadline \
             merge)"
      | Armed ->
          if c.Condition.in_s s' then Ok (Idle, `Free) else Ok (Armed, `Keep)
      | Idle -> if triggered then Ok (Armed, `Reset) else Ok (Idle, `Free)
    in
    let inspect p _s z =
      match (p, upper_probe) with
      | Armed, Some probe ->
          (* Violation iff time can pass the deadline while still armed:
             the zone admits y > q, i.e. 0 − y < −q is satisfiable. *)
          if K.sat z 0 y probe then raise (Answer Upper)
      | Armed, None | Idle, _ -> ()
    in
    match
      run ?limit ?deadline_s ?domains ?checkpoint ?resume ~kind:(cond_kind c)
        bm enc
        ~initial_phase:(fun s0 ->
          if c.Condition.t_start s0 then Armed else Idle)
        ~observe ~inspect
    with
    | fr, Fixpoint -> Verified (stats fr)
    (* A violation is found in sequential commit order, so its counts
       are the same at every domain count and on every kernel. *)
    | fr, Answered Lower -> Lower_violation (stats fr)
    | fr, Answered Upper -> Upper_violation (stats fr)
    | _, Answered (Unsupported_shape m) -> Unsupported m
    | _, Answered a -> raise a
    | _, Exhausted e -> Unknown e
end

module Default = Make (Dbm)
module Ref = Make (Dbm_ref)
module Int = Make (Dbm_int)

(* Automatic kernel selection, decided per call: the packed-int kernel
   whenever every constant the exploration will see is an integer —
   the boundmap's endpoints and, for a condition check, the condition
   bounds — and the fast rational kernel otherwise.  The check runs on
   the arguments of each call, so a margin walk whose mediant probe
   perturbs an integral boundmap into a non-integral one transparently
   falls back to the rational kernel for exactly that probe.  The
   fingerprints dispatch identically, so a checkpoint written through
   [Auto] records which kernel actually ran and resumes on it. *)
module Auto : S = struct
  let pick bm : (module S) =
    if Boundmap.is_integral bm then (module Int) else (module Default)

  let integral_cond (c : _ Condition.t) =
    Rational.is_integer (Interval.lo c.Condition.bounds)
    &&
    match Interval.hi c.Condition.bounds with
    | Time.Fin q -> Rational.is_integer q
    | Time.Inf -> true

  let pick_cond bm c : (module S) =
    if Boundmap.is_integral bm && integral_cond c then (module Int)
    else (module Default)

  let reachable ?limit ?deadline_s ?domains ?checkpoint ?resume a bm =
    let (module E : S) = pick bm in
    E.reachable ?limit ?deadline_s ?domains ?checkpoint ?resume a bm

  let check_state_invariant ?limit ?deadline_s ?domains ?checkpoint ?resume a
      bm pred =
    let (module E : S) = pick bm in
    E.check_state_invariant ?limit ?deadline_s ?domains ?checkpoint ?resume a
      bm pred

  let check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume a bm c =
    let (module E : S) = pick_cond bm c in
    E.check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume a bm c

  let fingerprint_reachable a bm =
    let (module E : S) = pick bm in
    E.fingerprint_reachable a bm

  let fingerprint_invariant a bm =
    let (module E : S) = pick bm in
    E.fingerprint_invariant a bm

  let fingerprint_condition a bm c =
    let (module E : S) = pick_cond bm c in
    E.fingerprint_condition a bm c
end

(* Paranoid engine: the self-checking kernel, degrading to the
   reference engine when a checked pipeline disagrees.  The degraded
   rerun starts fresh — a snapshot written by the (suspect) fast
   kernel must not seed the trustworthy run — but keeps writing to the
   caller's checkpoint path, so preemption still works after a
   degrade. *)
module Paranoid : S = struct
  module P = Make (Dbm_paranoid)

  let c_degraded = Metrics.counter "recover.degraded"

  let degrade what fallback f =
    try f () with
    | Tm_recover.Paranoid.Mismatch m ->
        Metrics.incr c_degraded;
        Events.emit "recover.degraded"
          [ ("what", Json.String what); ("mismatch", Json.String m) ];
        Log.warn
          "paranoid %s: fast kernel self-check failed (%s) — degrading to \
           the reference kernel"
          what m;
        fallback ()

  let reachable ?limit ?deadline_s ?domains ?checkpoint ?resume a bm =
    degrade "reachable"
      (fun () -> Ref.reachable ?limit ?deadline_s ?domains ?checkpoint a bm)
      (fun () ->
        P.reachable ?limit ?deadline_s ?domains ?checkpoint ?resume a bm)

  let check_state_invariant ?limit ?deadline_s ?domains ?checkpoint ?resume a
      bm pred =
    degrade "invariant"
      (fun () ->
        Ref.check_state_invariant ?limit ?deadline_s ?domains ?checkpoint a bm
          pred)
      (fun () ->
        P.check_state_invariant ?limit ?deadline_s ?domains ?checkpoint
          ?resume a bm pred)

  let check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume a bm c =
    degrade "condition"
      (fun () ->
        Ref.check_condition ?limit ?deadline_s ?domains ?checkpoint a bm c)
      (fun () ->
        P.check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume a bm
          c)

  let fingerprint_reachable = P.fingerprint_reachable
  let fingerprint_invariant = P.fingerprint_invariant
  let fingerprint_condition = P.fingerprint_condition
end

(* Every engine under the name the CLI's --engine flag and the daemon's
   "engine" request field both accept. *)
let engines : (string * (module S)) list =
  [
    ("auto", (module Auto));
    ("int", (module Int));
    ("fast", (module Default));
    ("ref", (module Ref));
    ("paranoid", (module Paranoid));
  ]

let engine_of_name name =
  match List.assoc_opt name engines with
  | None ->
      Error
        (Printf.sprintf "unknown engine %S (%s)" name
           (String.concat " | " (List.map fst engines)))
  | Some e ->
      (* paranoid without an explicit period samples 1 pipeline in 64 *)
      if String.equal name "paranoid" && Tm_recover.Paranoid.every () = 0 then
        Tm_recover.Paranoid.set_every 64;
      Ok e

include Default
