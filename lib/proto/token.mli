(** Capability tokens.

    Authorization on the bus is capability-based: the controller of a
    resource (e.g. the memory controller for DRAM, the SSD for a file)
    issues a token naming the subject device/app and the rights granted.
    The privileged bus verifies the token's MAC against the issuer's
    registered key before performing a privileged action (§2.2: "the system
    bus updates the page tables of a device only when it is instructed to do
    so by the controller of that particular resource").

    The MAC is a keyed FNV-1a construction — *not* cryptographically strong,
    but structurally faithful: forgery requires the issuer key, and tests
    exercise tamper detection on every field. *)

type key = int64
(** Issuer secret key. *)

type t = {
  issuer : Types.device_id;  (** resource controller that minted the token *)
  subject : Types.device_id;  (** device the capability empowers *)
  pasid : Types.pasid;  (** address space the grant applies to *)
  resource : string;  (** resource name, e.g. "dram", "file:/kv/data" *)
  base : Types.addr;  (** start of the granted range *)
  length : int64;  (** byte length of the granted range *)
  perm : Types.perm;
  nonce : int64;  (** anti-replay *)
  epoch : int;
      (** issuer capability epoch at mint time; covered by the MAC. The bus
          tracks the current epoch per issuer — revocation is one epoch bump,
          after which every outstanding token minted under the old epoch
          fails verification ([E_bad_token]) without touching the tokens
          themselves. *)
  mac : int64;
}

val mint :
  ?epoch:int ->
  key:key ->
  issuer:Types.device_id ->
  subject:Types.device_id ->
  pasid:Types.pasid ->
  resource:string ->
  base:Types.addr ->
  length:int64 ->
  perm:Types.perm ->
  nonce:int64 ->
  unit ->
  t
(** Create a token whose MAC covers every other field under [key].
    [epoch] defaults to [0] — the epoch a bus with no revocations reports. *)

val verify : key:key -> t -> bool
(** [verify ~key t] recomputes the MAC; any altered field fails. *)
