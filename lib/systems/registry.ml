module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Prng = Tm_base.Prng
module Ioa = Tm_ioa.Ioa
module Boundmap = Tm_timed.Boundmap
module Condition = Tm_timed.Condition
module TA = Tm_core.Time_automaton
module Mapping = Tm_core.Mapping
module Hierarchy = Tm_core.Hierarchy
module Completeness = Tm_core.Completeness
module D = Tm_core.Dummify
module Strategy = Tm_sim.Strategy
module RM = Resource_manager
module IM = Interrupt_manager
module SR = Signal_relay
module F = Fischer
module RG = Request_grant
module TR = Token_ring
module FD = Failure_detector
module TS = Two_stage

(* ------------------------------------------------------------------ *)
(* packs *)

type ('s, 'a) prop =
  | Cond of ('s, 'a) Condition.t
  | Inv of { label : string; holds : 's -> bool; violated : string }

type ('s, 'a) contrast = {
  heading : string;
  weakened : ('s, 'a) Condition.t;
  if_violated : string;
  if_verified : string;
}

type ('s, 'a) checks = {
  subject : string;
  system : ('s, 'a) Ioa.t;
  boundmap : Boundmap.t;
  props : ('s, 'a) prop list;
  contrast : ('s, 'a) contrast option;
}

type ('s, 'a) runs = {
  impl : ('s, 'a) TA.t;
  sim_conds : ('s, 'a) Condition.t list;
  denominator : int;
  map : Format.formatter -> unit;
  exact :
    analyze:(('s, 'a) Condition.t array -> ('s, 'a) Completeness.t) ->
    Format.formatter ->
    unit;
}

type checked = Checks : ('s, 'a) checks -> checked
type runnable = Runs : ('s, 'a) runs -> runnable
type pack = { describe : string; checks : checked; runs : runnable }

let checks ?contrast subject system boundmap props =
  Checks { subject; system; boundmap; props; contrast }

let runs ?(denominator = 2) ~map ~exact impl sim_conds =
  Runs { impl; sim_conds; denominator; map; exact }

(* ------------------------------------------------------------------ *)
(* parameters *)

type knob = { key : string; doc : string; default : int }

let knobs =
  [
    { key = "k"; doc = "ticks per grant"; default = 3 };
    { key = "c1"; doc = "clock lower bound"; default = 2 };
    { key = "c2"; doc = "clock upper bound"; default = 3 };
    { key = "l"; doc = "local-step bound"; default = 1 };
    { key = "n"; doc = "line length / processes"; default = 4 };
    { key = "d1"; doc = "per-hop lower bound"; default = 1 };
    { key = "d2"; doc = "per-hop upper bound"; default = 2 };
    { key = "a"; doc = "fischer write deadline"; default = 1 };
    { key = "b"; doc = "fischer check delay"; default = 2 };
    { key = "g1"; doc = "poll gap lower bound"; default = 2 };
    { key = "g2"; doc = "poll gap upper bound"; default = 3 };
    { key = "m"; doc = "misses before suspicion"; default = 2 };
  ]

type params = (string * int) list

let get (p : params) key =
  match List.assoc_opt key p with
  | Some v -> v
  | None -> invalid_arg ("Registry: no parameter " ^ key)

let canonical (p : params) =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) p)

type entry = {
  name : string;
  title : string;
  keys : string list;
  margin_defaults : (string * int) list;
  clamp : (string * (int * int)) list;
  fixed : (string * int) list;
  build : params -> pack;
}

let entry ?(margin_defaults = []) ?(clamp = []) ?(fixed = []) name title keys
    build =
  { name; title; keys; margin_defaults; clamp; fixed; build }

let resolve ?(margin = false) e given =
  let keys = List.map (fun kn -> kn.key) knobs in
  match List.find_opt (fun (key, _) -> not (List.mem key keys)) given with
  | Some (key, _) ->
      Error
        (Printf.sprintf "unknown param %S (known: %s)" key
           (String.concat ", " keys))
  | None ->
      (* first binding wins: the last given value (as in a JSON
         object), then the margin defaults, then the knob defaults *)
      let values =
        List.rev given
        @ (if margin then e.margin_defaults else [])
        @ List.map (fun kn -> (kn.key, kn.default)) knobs
      in
      let value key =
        let v = List.assoc key values in
        match List.assoc_opt key e.clamp with
        | Some (lo, hi) -> max lo (min v hi)
        | None -> v
      in
      Ok (List.map (fun key -> (key, value key)) e.keys @ e.fixed)

(* ------------------------------------------------------------------ *)
(* shared report shapes *)

let iv = Interval.to_string

(* One exact window line: [label] runs up to the word "exact"; [claim]
   names where the compared interval comes from. *)
let report_window fmt ~label ~claim (lo, hi) interval =
  Format.fprintf fmt "%sexact [%a, %a], %s %s@." label Time.pp lo Time.pp hi
    claim (iv interval)

let report_after fmt a ~trigger ?(cond = 0) ~label ~claim interval ~none =
  match Completeness.bounds_after a ~trigger ~cond with
  | Some w -> report_window fmt ~label ~claim w interval
  | None -> Format.fprintf fmt "%s@." none

let report_hierarchy ?failed ~title impl levels fmt =
  match Hierarchy.check_exhaustive ~source:impl ~levels () with
  | Ok st ->
      Format.fprintf fmt "%s: OK (%d product states)@." title
        st.Mapping.product_states
  | Error e ->
      Format.fprintf fmt "%s FAILED at level %d (%s)@."
        (Option.value failed ~default:title)
        e.Hierarchy.level_index e.Hierarchy.level_name

let no_map what fmt = Format.fprintf fmt "no paper mapping for this %s@." what

let no_exact subject ~analyze:_ fmt =
  Format.fprintf fmt "exact analysis not wired for %s@." subject

let conds cs = List.map (fun c -> Cond c) cs

(* ------------------------------------------------------------------ *)
(* the systems *)

let rm =
  entry "rm" "resource manager" [ "k"; "c1"; "c2"; "l" ] (fun p ->
      let k = get p "k" and c1 = get p "c1" and c2 = get p "c2" in
      let l = get p "l" in
      let pp = RM.params_of_ints ~k ~c1 ~c2 ~l in
      let impl = RM.impl pp and g = [ RM.g1 pp; RM.g2 pp ] in
      {
        describe =
          Printf.sprintf
            "resource manager (Section 4): k=%d c1=%d c2=%d l=%d; G1=%s G2=%s"
            k c1 c2 l
            (iv (RM.grant_interval_first pp))
            (iv (RM.grant_interval_between pp));
        checks = checks "manager" (RM.system pp) (RM.boundmap pp) (conds g);
        runs =
          runs ~denominator:4 impl g
            ~map:(fun fmt ->
              match
                Mapping.check_exhaustive ~source:impl ~target:(RM.spec pp)
                  (RM.mapping pp) ()
              with
              | Ok st ->
                  Format.fprintf fmt
                    "Lemma 4.3 mapping: OK (%d product states, %d edges)@."
                    st.Mapping.product_states st.Mapping.product_edges
              | Error e ->
                  Format.fprintf fmt "Lemma 4.3 mapping: FAILED@.  %a@."
                    (Mapping.pp_failure impl) e)
            ~exact:(fun ~analyze fmt ->
              let a = analyze (Array.of_list g) in
              report_window fmt ~label:"first GRANT:      " ~claim:"paper"
                (Completeness.start_bounds a ~cond:0)
                (RM.grant_interval_first pp);
              report_after fmt a ~cond:1
                ~trigger:(fun _ act _ -> act = RM.Grant)
                ~label:"between GRANTs:   " ~claim:"paper"
                (RM.grant_interval_between pp) ~none:"no GRANT edges reachable");
      })

(* The interrupt-driven variant (footnote 7) reads the same knobs. *)
let im =
  entry "im" "interrupt-driven manager" rm.keys (fun p ->
      let k = get p "k" and c1 = get p "c1" and c2 = get p "c2" in
      let l = get p "l" in
      let pp = IM.params_of_ints ~k ~c1 ~c2 ~l in
      let g = [ IM.g1 pp; IM.g2 pp ] in
      {
        describe =
          Printf.sprintf
            "interrupt-driven manager (footnote 7): k=%d c1=%d c2=%d l=%d" k c1
            c2 l;
        checks = checks "interrupt" (IM.system pp) (IM.boundmap pp) (conds g);
        runs =
          runs ~denominator:4 (IM.impl pp) g ~map:(no_map "variant")
            ~exact:(fun ~analyze fmt ->
              let a = analyze (Array.of_list g) in
              report_window fmt ~label:"first GRANT:    " ~claim:"predicted"
                (Completeness.start_bounds a ~cond:0)
                (IM.grant_interval_first pp);
              report_after fmt a ~cond:1
                ~trigger:(fun _ act _ -> act = IM.Grant)
                ~label:"between GRANTs: " ~claim:"predicted"
                (IM.grant_interval_between pp) ~none:"no GRANT edges reachable");
      })

(* The signal relay (Section 6): zone checks run on the plain line, the
   simulator and the hierarchy on its dummified form. *)
let relay =
  entry "relay" "signal relay" [ "n"; "d1"; "d2" ] (fun p ->
      let n = get p "n" and d1 = get p "d1" and d2 = get p "d2" in
      let pp = SR.params_of_ints ~n ~d1 ~d2 in
      let impl = SR.impl pp in
      let u_line =
        Condition.make ~name:"U(0,n)"
          ~t_step:(fun _ a _ -> a = SR.Signal 0)
          ~bounds:(SR.delay_interval pp)
          ~in_pi:(fun a -> a = SR.Signal n)
          ()
      in
      {
        describe =
          Printf.sprintf "signal relay (Section 6): n=%d d1=%d d2=%d; U(0,n)=%s"
            n d1 d2
            (iv (SR.delay_interval pp));
        checks = checks "relay" (SR.line pp) (SR.boundmap pp) [ Cond u_line ];
        runs =
          runs impl
            (List.init n (fun k -> SR.u_cond pp ~k))
            ~map:(fun fmt ->
              let chain = SR.chain pp in
              report_hierarchy ~failed:"hierarchy" impl chain fmt
                ~title:
                  (Printf.sprintf "Corollary 6.3 hierarchy (%d levels)"
                     (List.length chain)))
            ~exact:(fun ~analyze fmt ->
              report_after fmt
                (analyze [| SR.u_cond pp ~k:0 |])
                ~trigger:(fun _ act _ -> act = D.Base (SR.Signal 0))
                ~label:"delay: " ~claim:"paper" (SR.delay_interval pp)
                ~none:"SIGNAL_0 unreachable");
      })

(* LU extrapolation and the int kernel keep Fischer tractable well past
   n=3; n=5 completes in CI and n=6 is the safety stop. *)
let fischer =
  entry "fischer" "Fischer mutual exclusion" [ "n"; "a"; "b" ]
    ~clamp:[ ("n", (2, 6)) ]
    ~fixed:[ ("r", 2); ("t", 1); ("e", 2) ]
    (fun p ->
      let n = get p "n" and a = get p "a" and b = get p "b" in
      let pp =
        F.params_of_ints ~n ~r:(get p "r") ~t:(get p "t") ~a ~b ~b2:(b + 1)
          ~e:(get p "e")
      in
      let mutex =
        Inv
          {
            label = "mutual exclusion";
            holds = F.mutual_exclusion;
            violated = "VIOLATED";
          }
      in
      {
        describe =
          Printf.sprintf
            "Fischer mutual exclusion: n=%d a=%d b=%d (safe iff a<b)" n a b;
        checks =
          checks "fischer" (F.system pp) (F.boundmap pp)
            [ mutex; Cond (F.u_enter pp) ];
        runs =
          runs (F.impl pp) [ F.u_enter pp ] ~map:(no_map "system")
            ~exact:(no_exact "fischer");
      })

let rg =
  entry "rg" "request-grant" []
    ~fixed:[ ("r1", 2); ("r2", 5); ("w1", 1); ("w2", 3) ]
    (fun p ->
      let r1 = get p "r1" and r2 = get p "r2" in
      let w1 = get p "w1" and w2 = get p "w2" in
      let pp = RG.params_of_ints ~r1 ~r2 ~w1 ~w2 in
      {
        describe =
          Printf.sprintf
            "request-grant (conclusions): REQ every [%d,%d], RESP within \
             [%d,%d]"
            r1 r2 w1 w2;
        checks =
          checks "request-grant" (RG.system pp) (RG.boundmap pp)
            [ Cond (RG.u_response pp) ]
            ~contrast:
              {
                heading = "without the disabling set";
                weakened = RG.u_response_no_disable pp;
                if_violated = "UPPER BOUND VIOLATED (as designed)";
                if_verified = "verified (requests are spaced out)";
              };
        runs =
          runs (RG.impl pp) [ RG.u_response pp ] ~map:(no_map "system")
            ~exact:(no_exact "request-grant");
      })

let ring =
  entry "ring" "token ring" [ "n"; "d1"; "d2" ] (fun p ->
      let n = get p "n" and d1 = get p "d1" and d2 = get p "d2" in
      let pp = TR.params_of_ints ~n ~d1 ~d2 in
      let impl = TR.impl pp and u = TR.u_rotation pp in
      {
        describe =
          Printf.sprintf "token ring: n=%d, hop [%d,%d], rotation %s" n d1 d2
            (iv (TR.rotation_interval pp));
        checks = checks "ring" (TR.system pp) (TR.boundmap pp) [ Cond u ];
        runs =
          runs impl [ u ]
            ~map:(fun fmt ->
              report_hierarchy ~title:"ring hierarchy" impl (TR.chain pp) fmt)
            ~exact:(fun ~analyze fmt ->
              report_after fmt (analyze [| u |])
                ~trigger:(fun _ act _ -> act = TR.Pass 0)
                ~label:"rotation: " ~claim:"predicted"
                (TR.rotation_interval pp) ~none:"no rotations reachable");
      })

(* The failure detector's verify defaults are the safe regime (g1=2,
   m=2: accuracy via the m>=2 clause); margins default to the
   single-miss detector (g1=3, m=1), whose accuracy margin is exactly
   the paper's slack g1 - h2. *)
let fd =
  entry "fd" "failure detector" [ "g1"; "g2"; "m" ]
    ~margin_defaults:[ ("g1", 3); ("m", 1) ]
    ~fixed:[ ("h1", 1); ("h2", 2) ]
    (fun p ->
      let g1 = get p "g1" and g2 = get p "g2" and m = get p "m" in
      let h1 = get p "h1" and h2 = get p "h2" in
      let pp = FD.params_of_ints ~h1 ~h2 ~g1 ~g2 ~m in
      let impl = FD.impl pp and u = FD.u_detect pp in
      let accuracy =
        Inv
          {
            label = "accuracy";
            holds = FD.no_false_suspicion;
            violated = "false suspicion reachable";
          }
      in
      {
        describe =
          Printf.sprintf
            "failure detector: hb [%d,%d], poll [%d,%d], m=%d; detection %s%s"
            h1 h2 g1 g2 m
            (iv (FD.detection_interval pp))
            (if FD.accurate pp then "" else " (INACCURATE regime)");
        checks =
          checks "detector" (FD.system pp) (FD.boundmap pp) [ accuracy; Cond u ];
        runs =
          runs impl [ u ] ~map:(no_map "system")
            ~exact:(fun ~analyze fmt ->
              report_after fmt (analyze [| u |])
                ~trigger:(fun _ act _ -> act = FD.Crash)
                ~label:"detection: " ~claim:"predicted"
                (FD.detection_interval pp) ~none:"no crashes reachable");
      })

(* The conclusions' chained trigger (Section 8). *)
let two =
  entry "two" "chained trigger" []
    ~fixed:[ ("p1", 1); ("p2", 3); ("q1", 1); ("q2", 2); ("r1", 2); ("r2", 4) ]
    (fun p ->
      let pp =
        TS.params_of_ints ~p1:(get p "p1") ~p2:(get p "p2") ~q1:(get p "q1")
          ~q2:(get p "q2") ~r1:(get p "r1") ~r2:(get p "r2")
      in
      let impl = TS.impl pp in
      let stages = [ TS.u_start_mid pp; TS.u_mid_done pp; TS.u_end_to_end pp ] in
      {
        describe =
          Printf.sprintf "chained trigger (Sec. 8): end-to-end %s"
            (iv (TS.end_to_end_interval pp));
        checks = checks "two-stage" (TS.system pp) (TS.boundmap pp) (conds stages);
        runs =
          runs impl stages
            ~map:(fun fmt ->
              report_hierarchy ~title:"stage hierarchy" impl (TS.chain pp) fmt)
            ~exact:(fun ~analyze fmt ->
              report_after fmt
                (analyze [| TS.u_end_to_end pp |])
                ~trigger:(fun _ act _ -> act = TS.Start)
                ~label:"end-to-end: " ~claim:"predicted"
                (TS.end_to_end_interval pp) ~none:"no Start edges reachable");
      })

let systems = [ rm; im; relay; fischer; rg; ring; fd; two ]

let find name =
  match List.find_opt (fun e -> String.equal e.name name) systems with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown system %S (known: %s)" name
           (String.concat ", " (List.map (fun e -> e.name) systems)))

(* ------------------------------------------------------------------ *)
(* scheduling strategies *)

let strategies = [ "eager"; "lazy"; "random" ]

let strategy name ~seed ~denominator =
  match name with
  | "eager" -> Ok Strategy.eager
  | "lazy" -> Ok (Strategy.lazy_ ~cap:(Rational.of_int 1) ())
  | "random" ->
      Ok
        (Strategy.random ~prng:(Prng.create seed) ~denominator
           ~cap:(Rational.of_int 1))
  | other ->
      Error
        (Printf.sprintf "unknown strategy %S (%s)" other
           (String.concat " | " strategies))
