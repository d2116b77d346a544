(** Versioned on-disk snapshot of the whole campaign service: scheduler
    rotation plus every campaign's spec, status, cumulative counters,
    frontier (path encodings), ban set and union coverage vector.
    Checkpoints are taken only at drained barriers, so the lease ledger
    contributes nothing beyond the ban set already here. *)

(** Codec version stamped into every snapshot; {!load} refuses other
    versions rather than misreading them. *)
val version : int

type state = {
  st_rotation : string list;  (** scheduler rotation, front first *)
  st_campaigns : Campaign.t list;
}

val state_to_json : state -> Obs.Json.t
val state_of_json : Obs.Json.t -> (state, string) result

val campaign_to_json : Campaign.t -> Obs.Json.t
val campaign_of_json : Obs.Json.t -> (Campaign.t, string) result

val hex_of_bytes : Bytes.t -> string
val bytes_of_hex : string -> (Bytes.t, string) result

(** A campaign's encoding inside a snapshot:
    [Obs.Json.to_string (campaign_to_json c)]. *)
val campaign_fragment : Campaign.t -> string

(** [save path ~rotation fragments] writes the snapshot whose campaigns
    are [fragments] (from {!campaign_fragment}, in order): byte for byte
    [Obs.Json.to_string (state_to_json st)] and a newline.  Atomic:
    writes [path ^ ".tmp"], then renames over [path].  A crash mid-write
    leaves the previous snapshot intact. *)
val save : string -> rotation:string list -> string list -> unit

val load : string -> (state, string) result
