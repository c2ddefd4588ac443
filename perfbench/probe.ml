(* What the benchmark reads about the process and the machine: the
   monotonic clock, process CPU time, allocated words, peak heap, and the
   share of CPU time the hypervisor stole. *)

let now_ns = Tm_telemetry.Latency_recorder.now_ns

(* Process user + system CPU seconds, all domains included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated by the program so far, counting each word once: minor
   plus direct major allocations, minus what the minor GC promoted.
   Domains that have been joined are included. *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The calling domain's allocation counter; exact, and allocation-free to
   read, so span boundaries can use it. *)
let domain_words () = Gc.minor_words ()

(* Peak resident set size of the process (VmHWM), in MB: the memory a
   user of the machine sees the run take, runtime and minor heaps
   included.  Falls back to the OCaml heap's peak where /proc is
   missing. *)
let heap_peak_mb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> float_of_int kb *. 1024. /. 1e6)
          | _ -> scan ()
        in
        let r = scan () in
        close_in ic;
        r
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1e6

(* Aggregate CPU jiffies from the first line of /proc/stat: (steal,
   busy), busy being user + nice + system + irq + softirq. *)
let read_cpu_line () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      Option.bind line (fun l ->
          match String.split_on_char ' ' l |> List.filter (( <> ) "") with
          | "cpu" :: fields -> (
              match List.filter_map int_of_string_opt fields with
              | user :: nice :: system :: _idle :: _iowait :: irq :: softirq
                :: steal :: _ ->
                  Some (steal, user + nice + system + irq + softirq)
              | _ -> None)
          | _ -> None)

type steal_mark = (int * int) option

let steal_mark () : steal_mark = read_cpu_line ()

(* The share of the CPU time the machine's processes wanted since [m]
   that the hypervisor stole: steal / (steal + busy).  Idle CPUs are
   left out, so one busy domain on two vCPUs reads the same as two.  0
   when /proc/stat is unavailable or nothing ran. *)
let steal_share (m : steal_mark) =
  match (m, read_cpu_line ()) with
  | Some (s0, b0), Some (s1, b1) when s1 - s0 + (b1 - b0) > 0 ->
      float_of_int (s1 - s0) /. float_of_int (s1 - s0 + (b1 - b0))
  | _ -> 0.0

type stamp = {
  nproc : int;
  ocaml : string;
  rev : string;
  steal : float;
}

let stamp ~rev ~steal =
  {
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    rev;
    steal;
  }

let stamp_json s =
  Printf.sprintf
    "{\"nproc\":%d,\"ocaml\":%S,\"rev\":%S,\"steal_share\":%.6f}" s.nproc
    s.ocaml s.rev s.steal
