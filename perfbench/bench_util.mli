(** Helpers of the end-to-end benchmark that carry no simulator
    knowledge: nearest-rank percentiles, ratios that keep their base,
    the in-memory span recorder with self-time subtraction and Chrome
    trace export, and the results record with its JSON round trip. *)

(** {1 Percentiles} *)

val percentile : float array -> float -> float
(** [percentile xs p] is the nearest-rank [p]-th percentile of [xs]
    ([0 < p <= 100]): the smallest sample such that at least [p]% of the
    samples are no greater, i.e. the element of rank [ceil (p/100 * n)]
    in ascending order.  With 1 sample every percentile is that sample;
    with fewer than 10, p90 is the maximum.  Raises [Invalid_argument]
    on an empty array or [p] outside [(0, 100]]. *)

type summary = { n : int; p50 : float; p90 : float }
(** A timing reported as its median and p90, with the sample count. *)

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)

val pp_summary : unit:string -> Format.formatter -> summary -> unit
(** ["p50 12.3 ms, p90 14.0 ms (n=4)"]. *)

(** {1 Ratios} *)

type ratio = { num : float; den : float }
(** A ratio kept with its base, so "0.50" can always be read as "2 of
    4" rather than guessed at. *)

val ratio_value : ratio -> float
(** [num /. den], or [0.] when the base is zero (nothing was
    attempted). *)

val pp_ratio : Format.formatter -> ratio -> unit
(** ["0.5000 (2/4)"], or ["n/a (0/0)"] on a zero base. *)

(** {1 Spans} *)

type span = {
  id : int;
  name : string;
  start : float;  (** seconds, on the recorder's clock *)
  stop : float;
  parent : int;  (** the enclosing span's [id], or [-1] for a root *)
}

type recorder

val recorder : ?clock:(unit -> float) -> unit -> recorder
(** An empty in-memory span recorder; [clock] defaults to
    [Unix.gettimeofday]. *)

val with_span : recorder -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span named [name], parented to whichever
    span is open on this recorder (spans nest strictly).  The span is
    closed even when the thunk raises. *)

val spans : recorder -> span list
(** Closed spans, in the order they were opened. *)

val clear : recorder -> unit
(** Forget the closed spans (ids keep counting up, so spans taken before
    and after a [clear] never collide). *)

val self_times : span list -> (int * float) list
(** Per span id, its duration minus the durations of its direct
    children — the time the span spent outside any recorded callee.
    Children nest strictly inside their parent and do not overlap each
    other, which {!with_span} guarantees. *)

val self_by_name : span list -> (string * float * int) list
(** Self time summed per span name, with the span count; ordered by
    decreasing self time. *)

val to_chrome_trace : span list -> Autonet_telemetry.Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one complete
    ("ph":"X") event per span; [ts]/[dur] in microseconds relative to
    the earliest span, [args] carrying [id] and [parent]. *)

(** {1 Results} *)

type metric = { m_name : string; m_unit : string; m_value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}
(** The benchmark's verdict line: whether every output checked out,
    operations attempted and failed, and the metrics measured. *)

val result_to_json : result -> Autonet_telemetry.Json.t
(** [{"correct": .., "attempted": .., "failed": .., "metrics":
    {name: {"value": .., "unit": ..}, ...}}], metrics in list order. *)

val result_of_json : Autonet_telemetry.Json.t -> (result, string) Stdlib.result
(** Inverse of {!result_to_json}: exact on every finite value. *)
