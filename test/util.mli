(** Shared test helpers. *)

val with_temp_file : ?prefix:string -> ?suffix:string -> (string -> 'a) -> 'a
(** [with_temp_file f] calls [f path] with a fresh temp-file path and
    removes the file afterwards, even if [f] raises. *)

val write_file : string -> string -> unit
val read_file : string -> string

val contains : string -> string -> bool
(** [contains s sub]: [sub] occurs in [s]. *)

val with_out_channel : string -> (out_channel -> 'a) -> 'a
(** Opens [path] for writing, runs the function, and always closes the
    channel. *)
