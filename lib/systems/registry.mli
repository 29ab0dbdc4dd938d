(** The system registry: each of the paper's worked examples, defined
    once.

    An {!entry} names a system, declares which parameters it reads and
    builds a {!pack} from a resolved parameter set.  A pack holds
    everything the front ends need: the zone-checked system with its
    properties, and the timed automaton with its simulation conditions
    and its mapping / exact-window reports.  The CLI ([bin/timedmap.ml])
    prints a pack; the daemon's request catalog ([Tm_serve.Catalog])
    renders it as JSON.  Adding a system means adding one entry here,
    and both front ends serve it.

    This module knows nothing of the zone engine: verdicts are computed
    by the front ends, over the [system]/[boundmap]/[props] a pack
    exposes. *)

(** {1 Packs} *)

(** A property the zone engine checks, and whose robustness margin the
    margin analysis measures. *)
type ('s, 'a) prop =
  | Cond of ('s, 'a) Tm_timed.Condition.t
      (** a timing condition, checked with the observer construction *)
  | Inv of { label : string; holds : 's -> bool; violated : string }
      (** a state invariant; [violated] is the CLI's verdict word when a
          bad state is reachable ("VIOLATED", ...) *)

(** A deliberately weakened variant of a property, checked by the CLI
    after the real properties to show why the real one needs what it
    has.  It is not a daemon verification item. *)
type ('s, 'a) contrast = {
  heading : string;
  weakened : ('s, 'a) Tm_timed.Condition.t;
  if_violated : string;  (** printed on an upper-bound violation *)
  if_verified : string;  (** printed when it verifies anyway *)
}

(** The zone-checked side of a system. *)
type ('s, 'a) checks = {
  subject : string;
      (** prefixes condition labels and margin subjects ("manager") *)
  system : ('s, 'a) Tm_ioa.Ioa.t;
  boundmap : Tm_timed.Boundmap.t;
  props : ('s, 'a) prop list;
      (** the verification items, in order; margins quantify over the
          same list *)
  contrast : ('s, 'a) contrast option;
}

(** The executable side: the timed automaton [time(A, b)] and what is
    measured on it.  Its types may differ from the checked system's
    (the signal relay simulates its dummified form). *)
type ('s, 'a) runs = {
  impl : ('s, 'a) Tm_core.Time_automaton.t;
  sim_conds : ('s, 'a) Tm_timed.Condition.t list;
      (** conditions every simulated trace is checked against *)
  denominator : int;  (** time grid of the random scheduler *)
  map : Format.formatter -> unit;
      (** check the paper's mapping or hierarchy and print the result *)
  exact :
    analyze:
      (('s, 'a) Tm_timed.Condition.t array -> ('s, 'a) Tm_core.Completeness.t) ->
    Format.formatter ->
    unit;
      (** print exact first-occurrence windows; [analyze] builds the
          discretized analysis of [impl] (the caller applies budgets) *)
}

type checked = Checks : ('s, 'a) checks -> checked
type runnable = Runs : ('s, 'a) runs -> runnable

type pack = {
  describe : string;  (** one line naming the system and its parameters *)
  checks : checked;
  runs : runnable;
}

(** {1 Parameters} *)

(** A settable parameter: one CLI flag, one request ["params"] key. *)
type knob = { key : string; doc : string; default : int }

val knobs : knob list
(** Every settable parameter, in canonical order.  A system reads the
    subset named by its entry's [keys]. *)

type params
(** A resolved parameter set: every parameter one system reads, in
    canonical order, defaults filled in and clamps applied, followed by
    the system's fixed constants. *)

val canonical : params -> string
(** Stable printed form, e.g. ["k=2,c1=2,c2=3,l=1"].  Two requests name
    the same job exactly when their canonical forms (and systems) are
    equal, whatever order or spelling they gave their parameters in. *)

(** {1 Entries} *)

type entry = {
  name : string;  (** registry key: the CLI's [--system], a request's ["system"] *)
  title : string;  (** human name, for help texts *)
  keys : string list;  (** the knobs this system reads *)
  margin_defaults : (string * int) list;
      (** defaults that replace the knob defaults for margin analysis *)
  clamp : (string * (int * int)) list;  (** inclusive ranges values are clamped to *)
  fixed : (string * int) list;  (** constants, part of the canonical form *)
  build : params -> pack;
      (** @raise Invalid_argument or [Failure] when the system's
          constructor rejects the parameters *)
}

val systems : entry list
(** rm, im, relay, fischer, rg, ring, fd, two. *)

val find : string -> (entry, string) result
(** An unknown name is an [Error] listing the known ones. *)

val resolve :
  ?margin:bool -> entry -> (string * int) list -> (params, string) result
(** [resolve e given] fills in [e]'s parameters from [given] (later
    occurrences of a key win), the margin defaults when [margin] is set
    (default [false]), then the knob defaults, and applies the clamps.
    Keys [e] does not read are accepted and ignored; a key that is no
    knob at all is an [Error]. *)

(** {1 Simulation} *)

val strategy :
  string ->
  seed:int ->
  denominator:int ->
  (('s, 'a) Tm_sim.Strategy.t, string) result
(** A scheduling strategy by name; [seed] and [denominator] configure
    [random].  An unknown name is an [Error] listing the known ones. *)
