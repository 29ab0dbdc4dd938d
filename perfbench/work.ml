(* The two workloads (fischer5-int, margin-fischer3), their pinned
   answers, and the measurement helpers both share: clocks, percentiles,
   process memory, GC deltas and the in-memory span recorder of the
   traced run. *)

module Json = Tm_obs.Json
module Reach = Tm_zones.Reach
module Margin = Tm_faults.Margin
module Interval = Tm_base.Interval
module Condition = Tm_timed.Condition
module F = Tm_systems.Fischer

let now_s () = float_of_int (Shim.now_ns ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Wall and CPU (user + system) seconds of [f].  CPU time leaves out
   the time the process waits for a core, so it varies less with host
   load than wall time does. *)
let time_cpu f =
  let c0 = Sys.time () in
  let r, wall = time f in
  (r, wall, Sys.time () -. c0)

(* ------------------------------------------------------------------ *)
(* statistics *)

(* Nearest-rank percentile of an unsorted sample; [nan] when empty. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let k = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

let median = percentile 50.

(* ------------------------------------------------------------------ *)
(* process memory and GC *)

(* [VmHWM] (peak resident set) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
  in
  let kb = go () in
  close_in ic;
  float_of_int kb /. 1024.

type gc_delta = {
  minor_words : float;
  major_words : float;
  major_collections : int;
  top_heap_words : int;
}

let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      top_heap_words = g1.Gc.top_heap_words;
    } )

(* ------------------------------------------------------------------ *)
(* spans: kept in memory, written once at exit *)

type span = {
  sid : int;
  parent : int;  (* 0 = root *)
  sname : string;
  start_s : float;
  mutable dur_s : float;
}

let spans : span list ref = ref []
let span_stack = ref [ 0 ]
let next_sid = ref 0
let epoch = now_s ()

let with_span name f =
  incr next_sid;
  let s =
    { sid = !next_sid; parent = List.hd !span_stack; sname = name;
      start_s = now_s (); dur_s = 0. }
  in
  span_stack := s.sid :: !span_stack;
  Fun.protect
    ~finally:(fun () ->
      s.dur_s <- now_s () -. s.start_s;
      span_stack := List.tl !span_stack;
      spans := s :: !spans)
    f

(* Chrome trace-event JSON (loadable in Perfetto); [args] carry the span
   id and its parent so self time can be recomputed offline. *)
let write_spans path =
  let ev s =
    Json.Obj
      [ ("name", Json.String s.sname); ("ph", Json.String "X");
        ("ts", Json.Float ((s.start_s -. epoch) *. 1e6));
        ("dur", Json.Float (s.dur_s *. 1e6));
        ("pid", Json.Int 1); ("tid", Json.Int 1);
        ("args", Json.Obj [ ("id", Json.Int s.sid); ("parent", Json.Int s.parent) ]) ]
  in
  Json.to_file path
    (Json.Obj [ ("traceEvents", Json.List (List.rev_map ev !spans)) ])

(* ------------------------------------------------------------------ *)
(* fischer5-int: Fischer n=5 with the [verify -S fischer -n 5] defaults *)

let fischer n = F.params_of_ints ~n ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2

let zero_stats = { Reach.locations = 0; zones = 0; edges = 0 }

type check = { label : string; answer : string; stats : Reach.stats }

let verify_pass ?(domains = 1) (module E : Reach.S) p =
  let sys = F.system p and bm = F.boundmap p in
  let u = F.u_enter p in
  let inv =
    match E.check_state_invariant ~domains sys bm F.mutual_exclusion with
    | Ok st -> { label = "mutual exclusion"; answer = "VERIFIED"; stats = st }
    | Error _ ->
        { label = "mutual exclusion"; answer = "VIOLATED"; stats = zero_stats }
  in
  let cond =
    let label = "U_enter " ^ Interval.to_string u.Condition.bounds in
    let answer, stats =
      match E.check_condition ~domains sys bm u with
      | Reach.Verified st -> ("VERIFIED", st)
      | Reach.Lower_violation st -> ("LOWER_VIOLATION", st)
      | Reach.Upper_violation st -> ("UPPER_VIOLATION", st)
      | Reach.Unknown e -> ("UNKNOWN: " ^ e.Reach.reason, e.Reach.partial)
      | Reach.Unsupported m -> ("UNSUPPORTED: " ^ m, zero_stats)
    in
    { label; answer; stats }
  in
  [ inv; cond ]

let checks_json cs =
  Json.Obj (List.map (fun c -> (c.label, Json.String c.answer)) cs)

(* ------------------------------------------------------------------ *)
(* margin-fischer3: the two reports [timedmap margin -S fischer -n 3]
   prints *)

let margin_pass ?(domains = 1) ?(wrap = fun c -> c) (module E : Reach.S) p =
  let sys = F.system p and bm = F.boundmap p in
  let u = F.u_enter p in
  [
    Margin.report ~domains ~subject:"fischer mutual exclusion (invariant)"
      ~check:
        (wrap (fun bm' ->
             Margin.invariant_status (module E) sys F.mutual_exclusion bm'))
      bm;
    Margin.report ~domains
      ~subject:
        (Printf.sprintf "fischer %s %s" u.Condition.cname
           (Interval.to_string u.Condition.bounds))
      ~check:(wrap (fun bm' -> Margin.condition_status (module E) sys u bm'))
      bm;
  ]

(* The engine-independent part of a verdict document: zone, edge and
   probe counts are reported, never pinned — a legitimate subsumption
   or search gain lowers them. *)
let rec answer_of = function
  | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             match k with
             | "locations" | "zones" | "edges" | "probes" -> None
             | _ -> Some (k, answer_of v))
           kvs)
  | Json.List l -> Json.List (List.map answer_of l)
  | j -> j

let reports_json rs = Json.List (List.map (fun r -> answer_of (Margin.to_json r)) rs)

let probes_of rs =
  List.fold_left
    (fun n (r : Margin.report) ->
      let p = function Ok (v : Margin.verdict) -> v.Margin.probes | Error _ -> 0 in
      List.fold_left (fun n row -> n + p row.Margin.verdict) (n + p r.Margin.overall)
        r.Margin.per_class)
    0 rs

(* ------------------------------------------------------------------ *)
(* pinned answers *)

let pins_file = "perfbench/pins.json"

let pins =
  lazy
    (match Json.of_file pins_file with
    | Ok j -> j
    | Error m -> failwith (Printf.sprintf "cannot read pins %s: %s" pins_file m))

let pin key =
  match Json.member key (Lazy.force pins) with
  | Some j -> j
  | None -> failwith ("no pinned answer for " ^ key)

(* ------------------------------------------------------------------ *)
(* the Reach layer, timed from outside *)

type reach_acc = {
  mutable calls : int;
  mutable secs : float;
  mutable locations : int;  (* from the stats an entry point returns *)
}

let reach_acc = { calls = 0; secs = 0.; locations = 0 }

(* Every entry point of [E], timed and recorded as a span; the stats it
   returns feed [reach.locations].  Refutations return no stats. *)
module Timed (E : Reach.S) : Reach.S = struct
  let record name f stats_of =
    with_span name @@ fun () ->
    let t0 = now_s () in
    let finish st =
      reach_acc.calls <- reach_acc.calls + 1;
      reach_acc.secs <- reach_acc.secs +. (now_s () -. t0);
      reach_acc.locations <- reach_acc.locations + st.Reach.locations
    in
    match f () with
    | r ->
        finish (stats_of r);
        r
    | exception (Reach.Out_of_budget e as ex) ->
        finish e.Reach.partial;
        raise ex

  let reachable ?limit ?deadline_s ?domains ?checkpoint ?resume a bm =
    record "reach.reachable"
      (fun () -> E.reachable ?limit ?deadline_s ?domains ?checkpoint ?resume a bm)
      fst

  let check_state_invariant ?limit ?deadline_s ?domains ?checkpoint ?resume a
      bm pred =
    record "reach.check_state_invariant"
      (fun () ->
        E.check_state_invariant ?limit ?deadline_s ?domains ?checkpoint ?resume
          a bm pred)
      (function Ok st -> st | Error _ -> zero_stats)

  let check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume a bm c =
    record "reach.check_condition"
      (fun () ->
        E.check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume a bm c)
      (function
        | Reach.Verified st | Reach.Lower_violation st | Reach.Upper_violation st
          ->
            st
        | Reach.Unknown e -> e.Reach.partial
        | Reach.Unsupported _ -> zero_stats)

  let fingerprint_reachable = E.fingerprint_reachable
  let fingerprint_invariant = E.fingerprint_invariant
  let fingerprint_condition = E.fingerprint_condition
end

(* Exact work counters the engine keeps itself ([Tm_obs.Metrics]). *)
let zones_counter name = Tm_obs.Metrics.value (Tm_obs.Metrics.counter name)

type zone_counts = { edges : int; stored : int; subsumed : int; interned : int }

let zone_counts () =
  {
    edges = zones_counter "zones.edges";
    stored = zones_counter "zones.stored";
    subsumed = zones_counter "zones.subsumed";
    interned = zones_counter "zones.interned";
  }

let with_zone_counts f =
  let a = zone_counts () in
  let r = f () in
  let b = zone_counts () in
  ( r,
    {
      edges = b.edges - a.edges;
      stored = b.stored - a.stored;
      subsumed = b.subsumed - a.subsumed;
      interned = b.interned - a.interned;
    } )
