module Json = Tm_obs.Json
module Rational = Tm_base.Rational
module Interval = Tm_base.Interval
module Ioa = Tm_ioa.Ioa
module Condition = Tm_timed.Condition
module Semantics = Tm_timed.Semantics
module Tseq = Tm_timed.Tseq
module TA = Tm_core.Time_automaton
module Reach = Tm_zones.Reach
module Simulator = Tm_sim.Simulator
module Margin = Tm_faults.Margin
module Registry = Tm_systems.Registry

type job = {
  label : string;
  op : string;
  fingerprint : string;
  checkpointable : bool;
  req_limit : int option;
  req_deadline_s : float option;
  exec :
    limit:int option ->
    deadline_s:float option ->
    domains:int ->
    checkpoint:(string * int) option ->
    resume:string option ->
    (Json.t, Reach.exhausted) result;
}

(* ------------------------------------------------------------------ *)
(* verdict documents.  Field order is fixed, so re-rendering the same
   outcome yields byte-identical JSON — the cache equality the tests
   and CI check. *)

let stats_fields (st : Reach.stats) =
  [
    ("locations", Json.Int st.Reach.locations);
    ("zones", Json.Int st.Reach.zones);
    ("edges", Json.Int st.Reach.edges);
  ]

let verdict_doc ~label ~result extra =
  Json.Obj
    (("item", Json.String label) :: ("result", Json.String result) :: extra)

let budget_suffix ~limit ~deadline_s =
  Printf.sprintf "|limit=%s|deadline=%s"
    (match limit with Some n -> string_of_int n | None -> "-")
    (match deadline_s with Some s -> Printf.sprintf "%g" s | None -> "-")

(* One verification item.  Its fingerprint is exactly the engine's
   checkpoint fingerprint, so cache entries and checkpoint files agree
   on identity. *)
let item_job (type s a) (module E : Reach.S) (c : (s, a) Registry.checks) prop
    ~limit ~deadline_s =
  let sys = c.Registry.system and bm = c.Registry.boundmap in
  let job label fingerprint exec =
    {
      label;
      op = "verify";
      fingerprint;
      checkpointable = true;
      req_limit = limit;
      req_deadline_s = deadline_s;
      exec;
    }
  in
  match prop with
  | Registry.Cond cond ->
      let label = Printf.sprintf "%s %s" c.Registry.subject cond.Condition.cname in
      job label (E.fingerprint_condition sys bm cond)
        (fun ~limit ~deadline_s ~domains ~checkpoint ~resume ->
          match
            E.check_condition ?limit ?deadline_s ~domains ?checkpoint ?resume
              sys bm cond
          with
          | Reach.Verified st ->
              Ok
                (verdict_doc ~label ~result:"verified"
                   (("bounds",
                     Json.String (Interval.to_string cond.Condition.bounds))
                   :: stats_fields st))
          | Reach.Lower_violation st ->
              Ok (verdict_doc ~label ~result:"lower_violation" (stats_fields st))
          | Reach.Upper_violation st ->
              Ok (verdict_doc ~label ~result:"upper_violation" (stats_fields st))
          | Reach.Unsupported m ->
              Ok
                (verdict_doc ~label ~result:"unsupported"
                   [ ("message", Json.String m) ])
          | Reach.Unknown e -> Error e)
  | Registry.Inv { label; holds; _ } ->
      job label (E.fingerprint_invariant sys bm)
        (fun ~limit ~deadline_s ~domains ~checkpoint ~resume ->
          match
            E.check_state_invariant ?limit ?deadline_s ~domains ?checkpoint
              ?resume sys bm holds
          with
          | Ok st ->
              Ok (verdict_doc ~label ~result:"invariant_ok" (stats_fields st))
          | Error s ->
              Ok
                (verdict_doc ~label ~result:"invariant_violated"
                   [ ("state",
                      Json.String (Format.asprintf "%a" sys.Ioa.pp_state s)) ])
          | exception Reach.Out_of_budget e -> Error e)

let margin_report (type s a) (module E : Reach.S) ?limit ?deadline_s ~domains
    (c : (s, a) Registry.checks) prop =
  let sys = c.Registry.system in
  let subject, check =
    match prop with
    | Registry.Cond cond ->
        ( Printf.sprintf "%s %s %s" c.Registry.subject cond.Condition.cname
            (Interval.to_string cond.Condition.bounds),
          fun bm ->
            Margin.condition_status (module E) ?limit ?deadline_s sys cond bm )
    | Registry.Inv { label; holds; _ } ->
        ( Printf.sprintf "%s %s (invariant)" c.Registry.subject label,
          fun bm ->
            Margin.invariant_status (module E) ?limit ?deadline_s sys holds bm )
  in
  Margin.report ~domains ~subject ~check c.Registry.boundmap

(* The margin of every property.  The key names the system and its
   canonical parameters — the boundmap alone cannot tell apart systems
   whose condition bounds differ — plus the pinned engine's identity
   and the budgets. *)
let margin_job (type s a) ~system ~params ~ename engine
    (c : (s, a) Registry.checks) ~limit ~deadline_s =
  let module E = (val Margin.probe_engine ~name:ename engine) in
  {
    label = system ^ " margin";
    op = "margin";
    fingerprint =
      Printf.sprintf "tmmargin1|system=%s|%s|%s%s" system
        (Registry.canonical params)
        (E.fingerprint_invariant c.Registry.system c.Registry.boundmap)
        (budget_suffix ~limit ~deadline_s);
    checkpointable = false;
    req_limit = limit;
    req_deadline_s = deadline_s;
    exec =
      (fun ~limit ~deadline_s ~domains ~checkpoint:_ ~resume:_ ->
        let reports =
          List.map
            (fun prop ->
              Margin.to_json
                (margin_report (module E) ?limit ?deadline_s ~domains c prop))
            c.Registry.props
        in
        Ok
          (Json.Obj
             [ ("item", Json.String (c.Registry.subject ^ " margin"));
               ("result", Json.String "margin");
               ("reports", Json.List reports) ]));
  }

let simulate_job (type s a) ~system ~params (r : (s, a) Registry.runs) ~steps
    ~strategy ~seed ~limit ~deadline_s =
  let label = system ^ " simulate" in
  {
    label;
    op = "simulate";
    fingerprint =
      Printf.sprintf "tmsim1|system=%s|%s|steps=%d|strategy=%s|seed=%d%s"
        system (Registry.canonical params) steps strategy seed
        (budget_suffix ~limit:None ~deadline_s);
    checkpointable = false;
    req_limit = limit;
    req_deadline_s = deadline_s;
    exec =
      (fun ~limit:_ ~deadline_s ~domains:_ ~checkpoint:_ ~resume:_ ->
        match
          Registry.strategy strategy ~seed ~denominator:r.Registry.denominator
        with
        | Error m ->
            Ok
              (Json.Obj
                 [ ("item", Json.String label);
                   ("result", Json.String "error");
                   ("message", Json.String m) ])
        | Ok strat ->
            let aut = r.Registry.impl in
            let run = Simulator.simulate ?deadline_s ~steps ~strategy:strat aut in
            let seq = Simulator.project run in
            let violations =
              Semantics.semi_satisfies_all seq r.Registry.sim_conds
            in
            let moves =
              List.map
                (fun ((act, t), _) ->
                  Json.Obj
                    [
                      ("t", Json.String (Rational.to_string t));
                      ("act",
                       Json.String
                         (Format.asprintf "%a" aut.TA.base.Ioa.pp_action act));
                    ])
                seq.Tseq.moves
            in
            Ok
              (Json.Obj
                 [
                   ("item", Json.String label);
                   ("result", Json.String "simulated");
                   ("stop",
                    Json.String (Simulator.describe_stop run.Simulator.reason));
                   ("violations", Json.Int (List.length violations));
                   ("moves", Json.List moves);
                 ]));
  }

(* ------------------------------------------------------------------ *)
(* request parsing *)

let field k j = Json.member k j
let str_field k j = Option.bind (field k j) Json.string_opt
let int_field k j = Option.bind (field k j) Json.int_opt
let float_field k j = Option.bind (field k j) Json.float_opt

let ( let* ) = Result.bind

let given_params = function
  | None -> Ok []
  | Some (Json.Obj kvs) ->
      List.fold_right
        (fun (key, v) acc ->
          let* rest = acc in
          match Json.int_opt v with
          | Some i -> Ok ((key, i) :: rest)
          | None -> Error (Printf.sprintf "param %S must be an integer" key))
        kvs (Ok [])
  | Some _ -> Error "\"params\" must be an object of integers"

let of_request ?(default_engine = "auto") req =
  match req with
  | Json.Obj _ -> (
      let op = Option.value (str_field "op" req) ~default:"verify" in
      let system = Option.value (str_field "system" req) ~default:"rm" in
      let ename = Option.value (str_field "engine" req) ~default:default_engine in
      let limit = int_field "limit" req in
      let deadline_s = float_field "deadline_s" req in
      let* engine = Reach.engine_of_name ename in
      let* given = given_params (field "params" req) in
      let* entry = Registry.find system in
      let* params =
        Registry.resolve ~margin:(String.equal op "margin") entry given
      in
      (* system constructors validate interval shapes with exceptions;
         a daemon must turn those into errors *)
      let* pack =
        match entry.Registry.build params with
        | pack -> Ok pack
        | exception Invalid_argument m -> Error m
        | exception Failure m -> Error m
      in
      match (op, pack.Registry.checks, pack.Registry.runs) with
      | "verify", Registry.Checks c, _ -> (
          let idx = Option.value (int_field "item" req) ~default:0 in
          let props = c.Registry.props in
          match if idx < 0 then None else List.nth_opt props idx with
          | None ->
              Error
                (Printf.sprintf "item %d out of range (%s has %d items)" idx
                   system (List.length props))
          | Some prop -> Ok (item_job engine c prop ~limit ~deadline_s))
      | "margin", Registry.Checks c, _ ->
          Ok (margin_job ~system ~params ~ename engine c ~limit ~deadline_s)
      | "simulate", _, Registry.Runs r -> (
          let steps =
            max 1 (min 5000 (Option.value (int_field "steps" req) ~default:60))
          in
          let strategy =
            Option.value (str_field "strategy" req) ~default:"random"
          in
          let seed = Option.value (int_field "seed" req) ~default:42 in
          match Registry.strategy strategy ~seed ~denominator:1 with
          | Error m -> Error m
          | Ok _ ->
              Ok
                (simulate_job ~system ~params r ~steps ~strategy ~seed ~limit
                   ~deadline_s))
      | other, _, _ ->
          Error
            (Printf.sprintf
               "unknown op %S (verify | margin | simulate | ping | stats | \
                shutdown)"
               other))
  | _ -> Error "request must be a JSON object"
