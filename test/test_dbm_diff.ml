(* Differential harness for the DBM kernels.

   Every random operation script runs through several interpreters —
   the fast persistent API ({!Tm_zones.Dbm}), the destructive
   [Scratch] APIs, the reference kernel ({!Tm_zones.Dbm_ref}) and, on
   integral scripts, the packed-int kernel ({!Tm_zones.Dbm_int}) —
   and must produce identical canonical matrices, emptiness flags,
   [sat] verdicts and pairwise inclusion verdicts after every single
   op.  Random boundmap automata then check the engines fixpoint for
   fixpoint: {!Tm_zones.Reach} (fast), {!Tm_zones.Reach.Ref}
   (reference), {!Tm_zones.Reach.Int} and the dispatching
   {!Tm_zones.Reach.Auto} share one exploration discipline, so their
   stats and reachable state sets must agree exactly. *)

module Rational = Tm_base.Rational
module Interval = Tm_base.Interval
module Bnd = Tm_zones.Dbm_bound
module Dbm = Tm_zones.Dbm
module Dbm_ref = Tm_zones.Dbm_ref
module Dbm_int = Tm_zones.Dbm_int
module Reach = Tm_zones.Reach
module Condition = Tm_timed.Condition

(* Normalize raw generated indices into valid kernel arguments. *)
let norm_constraint n (c : Gen.dbm_constraint) =
  let i = c.ci mod n in
  let j = c.cj mod n in
  let j = if i = j then (j + 1) mod n else j in
  let q = Rational.make c.cnum c.cden in
  (i, j, if c.cstrict then Bnd.Lt q else Bnd.Le q)

let norm_clock n x = 1 + (x mod (n - 1))

(* A kernel-independent record of everything observable about a run. *)
type trace = {
  empties : bool list;
  mats : Bnd.t array option list;  (** canonical matrix after each op *)
  sats : bool list;  (** [sat] verdict probed before each Constrain *)
  incl : bool list;  (** pairwise inclusion verdicts over all snapshots *)
}

let snapshot (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) (z : z)
    =
  if K.is_empty z then None
  else
    let n = K.dim z in
    Some (Array.init (n * n) (fun k -> K.get z (k / n) (k mod n)))

(* Inclusion verdicts over every ordered pair of snapshots; a pair of
   different dimensions (a remap lies between them) reads [false]. *)
let inclusions (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    (zones : z array) =
  let incl = ref [] in
  for i = Array.length zones - 1 downto 0 do
    for j = Array.length zones - 1 downto 0 do
      incl :=
        (K.dim zones.(i) = K.dim zones.(j) && K.includes zones.(i) zones.(j))
        :: !incl
    done
  done;
  !incl

(* Interpret a script with the persistent API of any kernel.  A remap,
   which only the Scratch API has, goes through a pair of scratches and
   changes the dimension the following ops normalize against. *)
let run_persistent (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    (s : Gen.dbm_script) : trace =
  let n0 = s.Gen.ds_clocks in
  let snap = snapshot (module K) in
  let step (z : z) op =
    let n = K.dim z in
    match op with
    | Gen.Constrain c ->
        let i, j, b = norm_constraint n c in
        (K.constrain z i j b, Some (K.sat z i j b))
    | Gen.Up -> (K.up z, None)
    | Gen.Reset x -> (K.reset z (norm_clock n x), None)
    | Gen.Free x -> (K.free z (norm_clock n x), None)
    | Gen.Intersect cs ->
        let other =
          List.fold_left
            (fun acc c ->
              let i, j, b = norm_constraint n c in
              K.constrain acc i j b)
            (K.top n) cs
        in
        (K.intersect z other, None)
    | Gen.Extrapolate m -> (K.extrapolate (Rational.of_int m) z, None)
    | Gen.Remap raw -> (Gen.remap_zone (module K) z (Gen.norm_map n raw), None)
  in
  let _, zones_rev, empties, mats, sats =
    List.fold_left
      (fun (z, zs, es, ms, ss) op ->
        let z', sat = step z op in
        ( z',
          z' :: zs,
          K.is_empty z' :: es,
          snap z' :: ms,
          match sat with Some v -> v :: ss | None -> ss ))
      (K.top n0, [], [], [], [])
      s.Gen.ds_ops
  in
  let zones = Array.of_list (List.rev zones_rev) in
  {
    empties = List.rev empties;
    mats = List.rev mats;
    sats = List.rev sats;
    incl = inclusions (module K) zones;
  }

(* Interpret the same script with a kernel's destructive Scratch API
   (intersect round-trips through freeze, the one operation Scratch
   does not provide).  A remap moves the script onto a fresh scratch of
   the target dimension. *)
let run_scratch (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    (s : Gen.dbm_script) : trace =
  let n0 = s.Gen.ds_clocks in
  let module Sc = K.Scratch in
  let cur = ref (Sc.create n0, n0) in
  Sc.load (fst !cur) (K.top n0);
  let step op =
    let scr, n = !cur in
    match op with
    | Gen.Constrain c ->
        let i, j, b = norm_constraint n c in
        let sat = Sc.sat scr i j b in
        Sc.constrain scr i j b;
        Some sat
    | Gen.Up ->
        Sc.up scr;
        None
    | Gen.Reset x ->
        Sc.reset scr (norm_clock n x);
        None
    | Gen.Free x ->
        Sc.free scr (norm_clock n x);
        None
    | Gen.Intersect cs ->
        let other =
          List.fold_left
            (fun acc c ->
              let i, j, b = norm_constraint n c in
              K.constrain acc i j b)
            (K.top n) cs
        in
        Sc.load scr (K.intersect (Sc.freeze scr) other);
        None
    | Gen.Extrapolate m ->
        Sc.extrapolate (Rational.of_int m) scr;
        None
    | Gen.Remap raw ->
        let map = Gen.norm_map n raw in
        let dst = Sc.create (Array.length map) in
        Sc.remap ~src:scr map ~dst;
        cur := (dst, Array.length map);
        None
  in
  let zones_rev, empties, mats, sats =
    List.fold_left
      (fun (zs, es, ms, ss) op ->
        let sat = step op in
        let z = Sc.freeze (fst !cur) in
        ( z :: zs,
          K.is_empty z :: es,
          snapshot (module K) z :: ms,
          match sat with Some v -> v :: ss | None -> ss ))
      ([], [], [], [])
      s.Gen.ds_ops
  in
  let zones = Array.of_list (List.rev zones_rev) in
  {
    empties = List.rev empties;
    mats = List.rev mats;
    sats = List.rev sats;
    incl = inclusions (module K) zones;
  }

let mats_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun m1 m2 ->
         match (m1, m2) with
         | None, None -> true
         | Some a1, Some a2 ->
             Array.length a1 = Array.length a2
             && Array.for_all2 (fun x y -> Bnd.compare x y = 0) a1 a2
         | _ -> false)
       a b

let traces_equal t1 t2 =
  t1.empties = t2.empties && t1.sats = t2.sats && t1.incl = t2.incl
  && mats_equal t1.mats t2.mats

let script_diff_fast_vs_ref =
  Gen.check_holds "script: fast kernel == reference kernel" ~count:500
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      traces_equal (run_persistent (module Dbm) s)
        (run_persistent (module Dbm_ref) s))

let script_diff_scratch_vs_persistent =
  Gen.check_holds "script: scratch replay == persistent fast" ~count:300
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      traces_equal (run_scratch (module Dbm) s) (run_persistent (module Dbm) s))

(* Three-way: on integral scripts the packed-int kernel must agree
   op-for-op with both rational kernels — the unpacked snapshots and
   every boolean verdict are compared after every single op. *)
let script_diff_3way_int =
  Gen.check_holds "script: int kernel == fast == ref (integral scripts)"
    ~count:500 ~print:Gen.print_dbm_script Gen.int_dbm_script (fun s ->
      let ti = run_persistent (module Dbm_int) s in
      traces_equal ti (run_persistent (module Dbm) s)
      && traces_equal ti (run_persistent (module Dbm_ref) s))

let script_diff_int_scratch =
  Gen.check_holds "script: int scratch replay == persistent int" ~count:300
    ~print:Gen.print_dbm_script Gen.int_dbm_script (fun s ->
      traces_equal
        (run_scratch (module Dbm_int) s)
        (run_persistent (module Dbm_int) s))

(* The full-width reading of a remap, on the reference kernel: give
   every fresh target clock its own extra clock, reset those, free every
   source clock the map drops, and read the result through the clocks
   that carry the target's.  A remap must equal this projection entry by
   entry — which is what lets the zone engine drop a disabled class's
   clock instead of freeing it. *)
let remap_by_projection (z : Dbm_ref.t) map =
  let n = Dbm_ref.dim z and m = Array.length map in
  let carrier = Array.make m 0 in
  let w = ref n in
  for j = 1 to m - 1 do
    if map.(j) = 0 then begin
      carrier.(j) <- !w;
      incr w
    end
    else carrier.(j) <- map.(j)
  done;
  (* [z] embedded into [w] clocks, the extra ones unconstrained *)
  let big = ref (Dbm_ref.top !w) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        match Dbm_ref.get z i j with
        | Bnd.Inf -> ()
        | b -> big := Dbm_ref.constrain !big i j b
    done
  done;
  for x = n to !w - 1 do
    big := Dbm_ref.reset !big x
  done;
  for x = 1 to n - 1 do
    if not (Array.mem x map) then big := Dbm_ref.free !big x
  done;
  (Dbm_ref.is_empty z, fun i j -> Dbm_ref.get !big carrier.(i) carrier.(j))

(* The last zone of an integral script on the reference kernel (always
   canonical), remapped by a random slot map on every kernel. *)
let remap_is_projection =
  Gen.check_holds
    "remap: int == fast == ref == full-width reset+free projected onto \
     kept clocks"
    ~count:300
    ~print:(fun (s, raw) ->
      Printf.sprintf "%s then remap[0;%s]" (Gen.print_dbm_script s)
        (String.concat ";" (List.map string_of_int raw)))
    QCheck2.Gen.(
      pair Gen.int_dbm_script (list_size (int_range 1 5) (int_range 0 6)))
    (fun (s, raw) ->
      let z =
        List.fold_left
          (fun z op ->
            let n = Dbm_ref.dim z in
            match op with
            | Gen.Constrain c ->
                let i, j, b = norm_constraint n c in
                Dbm_ref.constrain z i j b
            | Gen.Up -> Dbm_ref.up z
            | Gen.Reset x -> Dbm_ref.reset z (norm_clock n x)
            | Gen.Free x -> Dbm_ref.free z (norm_clock n x)
            | Gen.Intersect cs ->
                Dbm_ref.intersect z
                  (List.fold_left
                     (fun acc c ->
                       let i, j, b = norm_constraint n c in
                       Dbm_ref.constrain acc i j b)
                     (Dbm_ref.top n) cs)
            | Gen.Extrapolate m -> Dbm_ref.extrapolate (Rational.of_int m) z
            | Gen.Remap r ->
                Gen.remap_zone (module Dbm_ref) z (Gen.norm_map n r))
          (Dbm_ref.top s.Gen.ds_clocks) s.Gen.ds_ops
      in
      let map = Gen.norm_map (Dbm_ref.dim z) raw in
      let m = Array.length map in
      let empty, want = remap_by_projection z map in
      let agrees (type k) (module K : Tm_zones.Dbm_sig.S with type t = k)
          (zk : k) =
        let r = Gen.remap_zone (module K) zk map in
        K.dim r = m
        && K.is_empty r = empty
        && (empty
           ||
           let ok = ref true in
           for i = 0 to m - 1 do
             for j = 0 to m - 1 do
               if Bnd.compare (K.get r i j) (want i j) <> 0 then ok := false
             done
           done;
           !ok)
      in
      let rebuild (type k) (module K : Tm_zones.Dbm_sig.S with type t = k) =
        let n = Dbm_ref.dim z in
        if Dbm_ref.is_empty z then K.constrain (K.zero n) 1 0 (Bnd.Lt (Gen.q 0))
        else begin
          let r = ref (K.top n) in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if i <> j then
                match Dbm_ref.get z i j with
                | Bnd.Inf -> ()
                | b -> r := K.constrain !r i j b
            done
          done;
          !r
        end
      in
      agrees (module Dbm_ref) z
      && agrees (module Dbm) (rebuild (module Dbm))
      && agrees (module Dbm_int) (rebuild (module Dbm_int)))

(* ------------------------------------------------------------------ *)
(* Engine-level differential on random boundmap automata.              *)

let sorted_states l = List.sort compare l

let reach_outcome ?(limit = 2000) (module E : Reach.S) aut bm =
  match E.reachable ~limit aut bm with
  | stats, states -> Ok (stats, sorted_states states)
  | exception Reach.Open_system m -> Error (`Open m)
  | exception Reach.Out_of_budget e ->
      Error (`Budget (e.Reach.reason, e.Reach.partial))

let fixpoint_diff =
  Gen.check_holds "automaton: engines agree on reachable fixpoint"
    ~count:120 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      reach_outcome (module Reach.Default) aut bm
      = reach_outcome (module Reach.Ref) aut bm)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* On integral automata the dispatching engine must (a) actually pick
   the int kernel — visible in the checkpoint fingerprint — and
   (b) agree with both the forced int engine and the reference. *)
let fixpoint_diff_int_auto =
  Gen.check_holds
    "automaton: auto engine selects int kernel and agrees (integral)"
    ~count:120 ~print:Gen.print_raut Gen.int_boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      Tm_timed.Boundmap.is_integral bm
      && contains (Reach.Auto.fingerprint_reachable aut bm) "|kernel=int|"
      && (let auto = reach_outcome (module Reach.Auto) aut bm in
          auto = reach_outcome (module Reach.Int) aut bm
          && auto = reach_outcome (module Reach.Ref) aut bm))

(* Both kernels run the one shared exploration, so running out of the
   zone budget must be deterministic: same reason, same partial stats,
   zone for zone.  A tiny limit makes most random automata exhaust. *)
let budget_diff =
  Gen.check_holds
    "automaton: engines agree on budget exhaustion and partial stats"
    ~count:120 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      reach_outcome ~limit:8 (module Reach.Default) aut bm
      = reach_outcome ~limit:8 (module Reach.Ref) aut bm)

let cond_outcome (module E : Reach.S) aut bm c =
  match E.check_condition ~limit:2000 aut bm c with
  | o -> Ok o
  | exception Reach.Open_system m -> Error m

let condition_diff =
  Gen.check_holds "automaton: engines agree on condition verdicts"
    ~count:100 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      (* Trigger and Pi are both action 0, a supported re-arming
         shape; the [0, 3] window makes all three verdicts and the
         Unsupported error reachable across random automata. *)
      let c =
        Condition.make ~name:"D"
          ~t_step:(fun _ a _ -> a = 0)
          ~bounds:(Interval.make Rational.zero (Tm_base.Time.Fin (Gen.q 3)))
          ~in_pi:(fun a -> a = 0)
          ()
      in
      cond_outcome (module Reach.Default) aut bm c
      = cond_outcome (module Reach.Ref) aut bm c)

(* Margin reports are built from many engine verdicts, so any kernel
   divergence is amplified; the full report (thresholds, refutation
   bounds, critical class) must be identical under both kernels. *)
let margin_diff =
  let module Margin = Tm_faults.Margin in
  let margin_report (module E : Reach.S) aut bm c =
    Margin.report ~eps_max:2 ~stable:5 ~max_probes:24 ~subject:"m"
      ~check:(fun bm' ->
        Margin.condition_status (module E) ~limit:2000 aut c bm')
      bm
  in
  Gen.check_holds "automaton: engines agree on robustness margins"
    ~count:40 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      let c =
        Condition.make ~name:"D"
          ~t_step:(fun _ a _ -> a = 0)
          ~bounds:(Interval.make Rational.zero (Tm_base.Time.Fin (Gen.q 3)))
          ~in_pi:(fun a -> a = 0)
          ()
      in
      margin_report (module Reach.Default) aut bm c
      = margin_report (module Reach.Ref) aut bm c)

(* Margin regression for the int kernel: mediant probes perturb an
   integral boundmap to non-integral rationals, which the packed-int
   kernel rejects outright.  A caller who forced [--engine int] is
   pinned back onto the rational engine by [Margin.probe_engine], and
   the dispatching engine re-checks integrality per probe — both must
   reproduce the rational report (thresholds, probe counts, critical
   class) bit for bit, with no truncation and no exception. *)
let margin_int_pin =
  let module Margin = Tm_faults.Margin in
  let margin_report (module E : Reach.S) aut bm c =
    Margin.report ~eps_max:2 ~stable:5 ~max_probes:24 ~subject:"m"
      ~check:(fun bm' ->
        Margin.condition_status (module E) ~limit:2000 aut c bm')
      bm
  in
  Gen.check_holds
    "automaton: forced int engine is pinned to rational for margins"
    ~count:30 ~print:Gen.print_raut Gen.int_boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      let c =
        Condition.make ~name:"D"
          ~t_step:(fun _ a _ -> a = 0)
          ~bounds:(Interval.make Rational.zero (Tm_base.Time.Fin (Gen.q 3)))
          ~in_pi:(fun a -> a = 0)
          ()
      in
      let base = margin_report (module Reach.Default) aut bm c in
      margin_report (Margin.probe_engine ~name:"int" (module Reach.Int)) aut
        bm c
      = base
      && margin_report (module Reach.Auto) aut bm c = base)

(* A couple of deterministic regressions pinning kernel corner cases
   the random scripts found valuable to keep explicit. *)
let unit_empty_freeze () =
  let scr = Dbm.Scratch.create 3 in
  Dbm.Scratch.load scr (Dbm.zero 3);
  (* x1 - 0 <= -1 is unsatisfiable at the origin *)
  Dbm.Scratch.constrain scr 1 0 (Bnd.Le (Gen.q (-1)));
  Alcotest.(check bool) "scratch empty" true (Dbm.Scratch.is_empty scr);
  Alcotest.(check bool) "frozen empty" true
    (Dbm.is_empty (Dbm.Scratch.freeze scr))

let unit_sat_is_o1_consistent () =
  (* sat must agree with the constrain-then-check definition on a
     canonical zone with fractional bounds. *)
  let z = Dbm.constrain (Dbm.top 3) 1 0 (Bnd.Lt (Gen.qq 7 2)) in
  let z = Dbm.constrain z 0 2 (Bnd.Le (Gen.qq (-5) 3)) in
  List.iter
    (fun (i, j, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "sat %d %d" i j)
        (not (Dbm.is_empty (Dbm.constrain z i j b)))
        (Dbm.sat z i j b))
    [
      (2, 1, Bnd.Le (Gen.qq (-11) 2));
      (2, 1, Bnd.Lt (Gen.qq (-31) 6));
      (1, 2, Bnd.Le (Gen.q 2));
      (0, 1, Bnd.Lt (Gen.qq (-7) 2));
      (2, 0, Bnd.Le (Gen.q 0));
    ]

let suite =
  [
    script_diff_fast_vs_ref;
    script_diff_scratch_vs_persistent;
    script_diff_3way_int;
    script_diff_int_scratch;
    remap_is_projection;
    fixpoint_diff;
    fixpoint_diff_int_auto;
    budget_diff;
    condition_diff;
    margin_diff;
    margin_int_pin;
    Alcotest.test_case "scratch: unsat constrain empties and freezes" `Quick
      unit_empty_freeze;
    Alcotest.test_case "sat: O(1) formula matches definition" `Quick
      unit_sat_is_o1_consistent;
  ]
