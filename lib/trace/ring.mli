(** A fixed-capacity ring buffer of trace events.

    Bounded by construction: once full, each new event overwrites the
    oldest one and bumps {!dropped}.  Single-writer — the multicore STM
    gives each domain its own ring, so [add] needs no synchronization. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val length : t -> int
(** Events currently retained ([<= capacity]). *)

val total : t -> int
(** Events ever added. *)

val dropped : t -> int
(** [max 0 (total - capacity)]: events overwritten by newer ones. *)

val add : t -> Trace_event.t -> unit

val to_list : t -> Trace_event.t list
(** Retained events, oldest first. *)

val clear : t -> unit
