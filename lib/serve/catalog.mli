(** Request catalog: parse a job request into a runnable, fingerprinted
    job.

    A request is a JSON object:

    {v
    { "op": "verify" | "margin" | "simulate",
      "system": "rm"|"im"|"relay"|...,         // a Tm_systems.Registry entry
      "params": { "n": 3, "a": 1, ... },      // system knobs, all optional
      "item": 0,                               // verify: which check
      "engine": "auto"|"int"|"fast"|"ref"|"paranoid",
      "limit": 50000, "deadline_s": 10.0,      // per-job budgets
      "steps": 60, "strategy": "random", "seed": 42 }   // simulate only
    v}

    Parsing is total and paranoid: unknown ops, systems, engines,
    params, non-integer knobs, out-of-range items all come back as
    [Error msg] — the server turns that into a structured error frame,
    never an exception.

    The job's [fingerprint] is the content address for the verdict
    cache and the checkpoint routing key.  For verify jobs it is {e
    exactly} the [Tm_zones.Reach] checkpoint fingerprint (kernel,
    widening mode, boundmap, condition/invariant encoding), so cache
    entries and checkpoint files agree on identity.  Margin and
    simulation fingerprints name the system and its canonical parameter
    form ({!Tm_systems.Registry.canonical}) plus every other input that
    can change the answer (the pinned engine and budgets;
    steps/strategy/seed/deadline), so parameter order and spelled-out
    defaults do not matter, and any differing parameter does. *)

module Reach = Tm_zones.Reach

type job = {
  label : string;  (** human name for logs and responses *)
  op : string;
  fingerprint : string;
  checkpointable : bool;
      (** verify jobs resume from checkpoints; margin/simulate rerun *)
  req_limit : int option;  (** the budgets the request asked for; the *)
  req_deadline_s : float option;  (** server clamps them to its caps *)
  exec :
    limit:int option ->
    deadline_s:float option ->
    domains:int ->
    checkpoint:(string * int) option ->
    resume:string option ->
    (Tm_obs.Json.t, Reach.exhausted) result;
      (** Run the job.  [Ok verdict] is cacheable and definite;
          [Error e] is a budget exhaustion / cooperative interrupt with
          partial stats (never cached). *)
}

val of_request :
  ?default_engine:string -> Tm_obs.Json.t -> (job, string) result
(** [default_engine] (default ["auto"]) applies when the request names
    none. *)

val margin_report :
  (module Reach.S) ->
  ?limit:int ->
  ?deadline_s:float ->
  domains:int ->
  ('s, 'a) Tm_systems.Registry.checks ->
  ('s, 'a) Tm_systems.Registry.prop ->
  Tm_faults.Margin.report
(** The robustness margin of one property of a registry system, with
    the subject line both the daemon's documents and the CLI's tables
    print. *)
